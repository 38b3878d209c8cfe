//! The one ordered container of the storage layer: a persistent map from
//! tuples to values, kept as sorted *runs* of about [`RUN`] entries behind
//! `Arc`s under one spine.
//!
//! `clone()` is a pointer bump: the copy shares the spine and every run
//! with its origin. A mutation copies the spine (run pointers and fences)
//! if it is shared and then only the runs it touches; everything else
//! stays shared, so the old and the new state of a transaction, the
//! staging processor and every published snapshot hold one copy of what
//! the transaction did not change. A run that reaches `2 * RUN` entries
//! splits in two; one that falls under `RUN / 2` is folded into a
//! neighbour (and the pair re-split when that overfills), so churn cannot
//! degrade the spine into many tiny runs. Iteration is ascending tuple
//! order.
//!
//! Every key is searched by its *word*: a `u64` that abbreviates the key's
//! first two columns and orders as the keys do (`abbreviate`). Each slot
//! of a run holds its entry's word beside the entry, and the spine keeps
//! each run's *fence*, the word of its last key, in one flat array.
//! Finding the run that can hold a key — for a lookup, a mutation or
//! either end of a prefix range — binary-searches the fences, and finding
//! the key in that run binary-searches the slots' words. Two words that
//! differ decide; a tuple is read only where a word ties the key's (the
//! slot's own tuple, or the run's last for a fence), and not even then
//! when the key's word is exact. So a search compares integers and
//! follows almost no tuple pointer, while the order — and so every
//! iteration — is exactly the tuples' order.
//!
//! [`Relation`](super::relation::Relation) is this container with no
//! value, plus one more of it per secondary index (the tuples with their
//! columns permuted); the maintenance engine's support counts are
//! the same container with an `i64` per tuple.

use crate::ast::Const;
use crate::storage::tuple::Tuple;
use std::sync::Arc;

/// Target entries per run. Runs hold between `RUN / 2` and `2 * RUN - 1`
/// entries, except that one run may be smaller (the only run of a small
/// set, or the tail of a bulk build).
pub const RUN: usize = 64;

/// The code of every symbol from this interning index on; each earlier
/// symbol's code is its index.
const SYM_LATE: u32 = 0x7FFF_FFFE;
/// The code of every integer below `-INT_WINDOW`.
const INT_BELOW: u32 = 0x7FFF_FFFF;
/// The code of integer 0: an integer `i` with `|i| <= INT_WINDOW` has
/// code `INT_ZERO + i`, up to `u32::MAX - 1`.
const INT_ZERO: u32 = 0xBFFF_FFFF;
/// The integers with a code of their own: `-INT_WINDOW..=INT_WINDOW`.
const INT_WINDOW: i64 = (1 << 30) - 1;
/// The code of every integer above `INT_WINDOW`.
const INT_ABOVE: u32 = u32::MAX;

/// The 32-bit code of a constant, and whether it is *exact* (no other
/// constant has it). Codes order as the constants do — every symbol, by
/// interning index, before every integer, by value — and a code shared by
/// several constants (late symbols, integers beyond the window) keeps
/// that order weakly.
fn code(c: Const) -> (u32, bool) {
    match c {
        Const::Sym(s) if s.index() < SYM_LATE => (s.index(), true),
        Const::Sym(_) => (SYM_LATE, false),
        Const::Int(i) if i < -INT_WINDOW => (INT_BELOW, false),
        Const::Int(i) if i > INT_WINDOW => (INT_ABOVE, false),
        Const::Int(i) => ((i64::from(INT_ZERO) + i) as u32, true),
    }
}

/// The word of a key, and whether it is exact. The word holds the first
/// column's code in its high half and the second column's in its low half
/// when the first code is exact (0 otherwise, and for a shorter key).
/// Words order as keys do — a shorter key, which sorts before every key
/// extending it, too: `abbreviate(x).0 < abbreviate(y).0` implies
/// `x < y`, so two words that differ decide the order and only a tie
/// needs the keys. The word is *exact* when no other key of the same
/// length has it: at most two columns, each with an exact code.
pub(crate) fn abbreviate(key: &[Const]) -> (u64, bool) {
    let Some(&first) = key.first() else {
        return (0, true);
    };
    let (high, exact_high) = code(first);
    let (low, exact_low) = match key.get(1) {
        Some(&second) if exact_high => code(second),
        _ => (0, true),
    };
    let word = u64::from(high) << 32 | u64::from(low);
    (word, exact_high && exact_low && key.len() <= 2)
}

/// The word of a key ([`abbreviate`]).
pub(crate) fn word(key: &[Const]) -> u64 {
    abbreviate(key).0
}

/// What of a key's word its first `n` columns decide: the word of
/// `key[..n]` is `word(key) & prefix_mask(n)`.
fn prefix_mask(n: usize) -> u64 {
    match n {
        0 => 0,
        1 => u64::MAX << 32,
        _ => u64::MAX,
    }
}

/// The first of `items`, in ascending key order, whose key is not below
/// a search key of word `w`: the items' words (`word`, masked as the
/// search needs) decide where they differ from `w`, and `below(i)` only
/// where item `i`'s ties it.
fn search<T>(
    items: &[T],
    w: u64,
    word: impl Fn(&T) -> u64,
    below: impl Fn(usize) -> bool,
) -> usize {
    let lo = items.partition_point(|x| word(x) < w);
    match items.get(lo) {
        Some(x) if word(x) == w && below(lo) => {}
        _ => return lo,
    }
    // Several ties, the first of them below the key: rare, and short.
    let first = lo + 1;
    let end = first + items[first..].partition_point(|x| word(x) == w);
    let (mut lo, mut hi) = (first, end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A search key, its word and whether that is exact.
#[derive(Clone, Copy)]
struct Key<'a> {
    word: u64,
    exact: bool,
    cols: &'a [Const],
}

impl<'a> Key<'a> {
    fn new(cols: &'a [Const]) -> Key<'a> {
        let (word, exact) = abbreviate(cols);
        Key { word, exact, cols }
    }

    /// Whether a stored tuple whose word ties this key's is below it.
    /// Every tuple that ties an exact key is the key or extends it, so
    /// none is.
    fn tie_below(self, t: &[Const]) -> bool {
        !self.exact && t < self.cols
    }

    /// Whether a stored tuple whose first `cols.len()` columns' word ties
    /// this key's starts with at most the key: every such tuple starts
    /// with an exact key.
    fn tie_in_range(self, t: &[Const]) -> bool {
        self.exact || t[..self.cols.len()] <= *self.cols
    }

    /// Whether a stored tuple whose word ties this key's is the key.
    fn tie_equal(self, t: &[Const]) -> bool {
        if self.exact {
            t.len() == self.cols.len()
        } else {
            t == self.cols
        }
    }
}

/// One entry of a run and the word of its tuple.
#[derive(Clone, Debug)]
pub(crate) struct Slot<V> {
    word: u64,
    entry: (Tuple, V),
}

pub(crate) type Run<V> = Arc<Vec<Slot<V>>>;

/// The runs and their fences. The fence of run `i` is `fences[i]`, the
/// word of its last key: choosing a run searches this one flat array of
/// integers and dereferences a run only where a fence ties an inexact
/// key's word.
#[derive(Clone, Debug)]
struct Spine<V> {
    runs: Vec<Run<V>>,
    fences: Vec<u64>,
}

impl<V> Default for Spine<V> {
    fn default() -> Spine<V> {
        Spine {
            runs: Vec::new(),
            fences: Vec::new(),
        }
    }
}

impl<V> Spine<V> {
    /// The last key of run `i`.
    fn last_key(&self, i: usize) -> &[Const] {
        &last(&self.runs[i]).entry.0
    }

    /// Sets the fence of run `i` to its last key's word.
    fn refence(&mut self, i: usize) {
        self.fences[i] = last(&self.runs[i]).word;
    }

    /// Inserts a non-empty run at `i`, with its fence.
    fn insert_run(&mut self, i: usize, run: Vec<Slot<V>>) {
        self.fences.insert(i, last(&run).word);
        self.runs.insert(i, Arc::new(run));
    }

    /// Removes run `i` and its fence.
    fn remove_run(&mut self, i: usize) -> Run<V> {
        self.fences.remove(i);
        self.runs.remove(i)
    }
}

/// The last slot of a run.
fn last<V>(run: &[Slot<V>]) -> &Slot<V> {
    run.last().expect("no run is empty")
}

/// The first slot of `run` not below `key`.
fn lower_bound<V>(run: &[Slot<V>], key: Key<'_>) -> usize {
    search(
        run,
        key.word,
        |s| s.word,
        |j| key.tie_below(&run[j].entry.0),
    )
}

/// A persistent ordered map from [`Tuple`]s to `V`.
#[derive(Clone, Debug)]
pub struct Runs<V> {
    spine: Arc<Spine<V>>,
    len: usize,
}

impl<V> Default for Runs<V> {
    fn default() -> Runs<V> {
        Runs {
            spine: Arc::default(),
            len: 0,
        }
    }
}

impl<V: Clone> Runs<V> {
    /// Builds a map from entries in strictly ascending tuple order, all of
    /// one arity.
    pub fn from_sorted(entries: impl IntoIterator<Item = (Tuple, V)>) -> Runs<V> {
        Runs::from_sorted_words(entries.into_iter().map(|e| (word(&e.0), e)))
    }

    /// [`from_sorted`](Self::from_sorted) from entries that come with
    /// their tuples' words, as a sort by word leaves them: the tuples are
    /// not read again.
    pub(crate) fn from_sorted_words(
        entries: impl IntoIterator<Item = (u64, (Tuple, V))>,
    ) -> Runs<V> {
        let mut spine = Spine::default();
        let mut run: Vec<Slot<V>> = Vec::with_capacity(RUN);
        let (mut len, mut arity) = (0, None);
        for (word, entry) in entries {
            debug_assert!(run.last().is_none_or(|s| s.entry.0 < entry.0));
            debug_assert_eq!(word, self::word(&entry.0));
            debug_assert_eq!(
                *arity.get_or_insert(entry.0.arity()),
                entry.0.arity(),
                "one arity per container"
            );
            if run.len() == RUN {
                let full = std::mem::replace(&mut run, Vec::with_capacity(RUN));
                spine.insert_run(spine.runs.len(), full);
            }
            run.push(Slot { word, entry });
            len += 1;
        }
        if !run.is_empty() {
            spine.insert_run(spine.runs.len(), run);
        }
        Runs {
            spine: Arc::new(spine),
            len,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of the first run whose fence (last key) is `>= key`, i.e. the
    /// only run that can hold `key` (the number of runs when every key is
    /// smaller): a binary search of the fences. A shorter key sorts before
    /// every tuple extending it, so this also finds where a prefix range
    /// starts.
    fn locate(&self, key: Key<'_>) -> usize {
        let spine = &*self.spine;
        debug_assert!(spine.runs.is_empty() || key.cols.len() <= spine.last_key(0).len());
        search(
            &spine.fences,
            key.word,
            |&f| f,
            |i| key.tie_below(spine.last_key(i)),
        )
    }

    /// The run and position of `key`, if it is present.
    fn find(&self, key: &[Const]) -> Option<(usize, usize)> {
        let key = Key::new(key);
        let i = self.locate(key);
        let run = self.spine.runs.get(i)?;
        let j = lower_bound(run, key);
        let slot = run.get(j)?;
        (slot.word == key.word && key.tie_equal(&slot.entry.0)).then_some((i, j))
    }

    /// The value stored for `key`.
    pub fn get(&self, key: &[Const]) -> Option<&V> {
        let (i, j) = self.find(key)?;
        Some(&self.spine.runs[i][j].entry.1)
    }

    /// Mutable access to the value stored for `key` (copies the run if it
    /// is shared).
    pub fn get_mut(&mut self, key: &[Const]) -> Option<&mut V> {
        let (i, j) = self.find(key)?;
        let run = Arc::make_mut(&mut Arc::make_mut(&mut self.spine).runs[i]);
        Some(&mut run[j].entry.1)
    }

    /// Inserts `key → value` unless `key` is present (then nothing
    /// changes, nothing is copied); returns `true` iff it was inserted.
    pub fn insert(&mut self, key: Tuple, value: V) -> bool {
        let Some((i, j, word)) = self.vacancy(&key) else {
            return false;
        };
        let entry = (key, value);
        self.place(i, j, Slot { word, entry });
        true
    }

    /// [`insert`](Self::insert) from a borrowed key, searched once: the
    /// tuple is allocated only if `key` is absent, and then returned (it
    /// shares its constants with the map's entry).
    pub fn insert_new(&mut self, key: &[Const], value: V) -> Option<Tuple> {
        let (i, j, word) = self.vacancy(key)?;
        let t = Tuple::from(key);
        let entry = (t.clone(), value);
        self.place(i, j, Slot { word, entry });
        Some(t)
    }

    /// Where an absent `key` goes — its run, its position there and its
    /// word — or `None` if it is present. A key past the last one extends
    /// the last run; the first key of an empty map opens run 0.
    fn vacancy(&self, key: &[Const]) -> Option<(usize, usize, u64)> {
        let key = Key::new(key);
        let runs = &self.spine.runs;
        if runs.is_empty() {
            return Some((0, 0, key.word));
        }
        debug_assert_eq!(
            self.spine.last_key(0).len(),
            key.cols.len(),
            "one arity per container"
        );
        let i = self.locate(key).min(runs.len() - 1);
        let j = lower_bound(&runs[i], key);
        match runs[i].get(j) {
            Some(slot) if slot.word == key.word && key.tie_equal(&slot.entry.0) => None,
            _ => Some((i, j, key.word)),
        }
    }

    /// Puts `slot` where [`vacancy`](Self::vacancy) said it goes.
    fn place(&mut self, i: usize, j: usize, slot: Slot<V>) {
        let spine = Arc::make_mut(&mut self.spine);
        self.len += 1;
        if spine.runs.is_empty() {
            spine.insert_run(0, vec![slot]);
            return;
        }
        let run = Arc::make_mut(&mut spine.runs[i]);
        run.insert(j, slot);
        if run.len() >= 2 * RUN {
            let upper = run.split_off(RUN);
            spine.insert_run(i + 1, upper);
        }
        spine.refence(i);
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &[Const]) -> Option<V> {
        let (i, j) = self.find(key)?;
        let spine = Arc::make_mut(&mut self.spine);
        let run = Arc::make_mut(&mut spine.runs[i]);
        let value = run.remove(j).entry.1;
        let left = run.len();
        self.len -= 1;
        if spine.runs.len() == 1 && left == 0 {
            spine.runs.clear();
            spine.fences.clear();
        } else if spine.runs.len() > 1 && left < RUN / 2 {
            // Fold the underfull run into a neighbour; re-split the pair
            // when that overfills, so both halves end up at least `RUN`.
            let (a, b) = if i > 0 { (i - 1, i) } else { (i, i + 1) };
            let upper = spine.remove_run(b);
            let lower = Arc::make_mut(&mut spine.runs[a]);
            match Arc::try_unwrap(upper) {
                Ok(owned) => lower.extend(owned),
                Err(shared) => lower.extend(shared.iter().cloned()),
            }
            if lower.len() >= 2 * RUN {
                let upper = lower.split_off(lower.len() / 2);
                spine.insert_run(b, upper);
            }
            spine.refence(a);
        } else {
            spine.refence(i);
        }
        Some(value)
    }

    /// All entries in ascending tuple order.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            spine: &self.spine.runs,
            run: 0,
            pos: 0,
            end_run: self.spine.runs.len(),
            end: 0,
        }
    }

    /// The entries whose tuples start with `key`, in ascending order: one
    /// contiguous stretch, since a shorter key sorts before every tuple
    /// extending it. Both ends are found up front, each run by the fences,
    /// so the iterator does not borrow `key`. The end compares the words
    /// of the tuples' first `key.len()` columns, masked out of the stored
    /// words.
    pub fn prefix(&self, key: &[Const]) -> Iter<'_, V> {
        let mask = prefix_mask(key.len());
        let key = Key::new(key);
        let spine = &*self.spine;
        let runs = &spine.runs;
        let run = self.locate(key);
        let pos = runs.get(run).map_or(0, |r| lower_bound(r, key));
        let end_run = search(
            &spine.fences,
            key.word,
            |&f| f & mask,
            |i| key.tie_in_range(spine.last_key(i)),
        );
        let end = runs.get(end_run).map_or(0, |r| {
            search(
                r,
                key.word,
                |s| s.word & mask,
                |j| key.tie_in_range(&r[j].entry.0),
            )
        });
        Iter {
            spine: runs,
            run,
            pos,
            end_run,
            end,
        }
    }

    /// The runs, for tests of the size invariant and of sharing.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> &[Run<V>] {
        &self.spine.runs
    }

    /// The fences, for tests.
    #[cfg(test)]
    pub(crate) fn fences(&self) -> &[u64] {
        &self.spine.fences
    }

    /// Asserts that every slot holds its tuple's word and every fence is
    /// the word of its run's last key.
    #[cfg(test)]
    pub(crate) fn assert_words(&self) {
        let spine = &*self.spine;
        assert_eq!(spine.fences.len(), spine.runs.len(), "one fence per run");
        for (i, run) in spine.runs.iter().enumerate() {
            assert!(run.iter().all(|s| s.word == word(&s.entry.0)), "slot words");
            assert_eq!(spine.fences[i], word(spine.last_key(i)), "fence");
        }
    }
}

/// An ascending stretch of a [`Runs`]: from entry `pos` of run `run` up
/// to, not including, entry `end` of run `end_run`. Positions are kept
/// inside their run (or at the spine's end), so equal positions are the
/// same entry.
#[derive(Clone, Debug)]
pub struct Iter<'a, V> {
    spine: &'a [Run<V>],
    run: usize,
    pos: usize,
    end_run: usize,
    end: usize,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = &'a (Tuple, V);

    fn next(&mut self) -> Option<&'a (Tuple, V)> {
        if (self.run, self.pos) >= (self.end_run, self.end) {
            return None;
        }
        let run = &self.spine[self.run];
        let entry = &run[self.pos].entry;
        self.pos += 1;
        if self.pos == run.len() {
            self.run += 1;
            self.pos = 0;
        }
        Some(entry)
    }
}

impl<V: Clone + PartialEq> PartialEq for Runs<V> {
    fn eq(&self, other: &Runs<V>) -> bool {
        // An unmutated clone has the same spine: no need to look inside.
        self.len == other.len
            && (Arc::ptr_eq(&self.spine, &other.spine) || self.iter().eq(other.iter()))
    }
}

impl<V: Clone + Eq> Eq for Runs<V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// What the maps are checked against.
    type Model = BTreeMap<Tuple, i64>;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// One of 2 400 keys of `arity` columns (6 × 10 × 40 at arity 3),
    /// every column even, so draws repeat, prefixes are shared and an odd
    /// column sorts a key strictly between two stored ones. A column's
    /// lowest third of values lies far below the integers with codes of
    /// their own and its highest third straddles their upper edge, so
    /// many keys tie on their words and only the tuples tell them apart.
    fn random_key(rng: &mut u64, arity: usize) -> Tuple {
        let radix: &[u64] = [&[][..], &[2400], &[60, 40], &[6, 10, 40]][arity];
        let mut x = xorshift(rng) % 2400;
        let mut cols = vec![Const::Int(0); arity];
        for (col, &r) in cols.iter_mut().zip(radix).rev() {
            let v = x % r;
            let top = (2 * r).div_ceil(3);
            let shift = match 3 * v / r {
                0 => -(1 << 40),
                1 => 0,
                _ => INT_WINDOW + 1 - ((top + r) / 2 * 2) as i64,
            };
            *col = Const::Int(2 * v as i64 + shift);
            x /= r;
        }
        cols.into()
    }

    /// Keys that sort relative to the fences in every way there is: each
    /// fence, each run's first key (between its fence and the one before),
    /// each fence with its last column bumped to an odd value (between
    /// two stored keys), one key past the last fence, and a random one.
    fn probe_keys(r: &Runs<i64>, arity: usize, rng: &mut u64) -> Vec<Tuple> {
        let mut keys = vec![random_key(rng, arity)];
        for run in r.runs() {
            let (first, last) = (&run[0].entry.0, &last(run).entry.0);
            keys.extend([first.clone(), last.clone()]);
            if let Some((Const::Int(c), init)) = last.split_last() {
                keys.push(init.iter().copied().chain([Const::Int(c + 1)]).collect());
            }
        }
        keys.push(vec![Const::Int(i64::MAX); arity].into());
        keys
    }

    /// Everything a reader can ask of `r` answers as the model does, the
    /// fences are the words of the runs' last keys and the runs keep their
    /// sizes.
    fn assert_matches_model(r: &Runs<i64>, model: &Model, arity: usize, rng: &mut u64) {
        assert_eq!(r.len(), model.len());
        assert_eq!(r.is_empty(), model.is_empty());
        assert!(r.iter().map(|(k, v)| (k, v)).eq(model.iter()), "iteration");
        let sizes: Vec<usize> = r.runs().iter().map(|run| run.len()).collect();
        assert!(sizes.iter().all(|&n| n > 0 && n < 2 * RUN), "{sizes:?}");
        assert!(
            sizes.iter().filter(|&&n| n < RUN / 2).count() <= 1,
            "{sizes:?}"
        );
        r.assert_words();
        for key in probe_keys(r, arity, rng) {
            assert_eq!(r.get(&key), model.get(&key), "get {key}");
            for n in 0..=arity {
                let expected = model
                    .range(Tuple::from(&key[..n])..)
                    .take_while(|(k, _)| k[..n] == key[..n]);
                assert!(
                    r.prefix(&key[..n]).map(|(k, v)| (k, v)).eq(expected),
                    "prefix {:?}",
                    &key[..n]
                );
            }
        }
    }

    /// Seeded model-based sweep of the counts and ranks container: every
    /// operation of `Runs<i64>` against a `BTreeMap`, at arities 1 to 3,
    /// over a few maps that are clones of each other and all stay alive.
    /// Growing and shrinking spells take each map from empty to many runs
    /// and back, so runs split, fold into the neighbour on either side and
    /// re-split. After every step the map it changed is checked in full
    /// and every other one still iterates as its model.
    #[test]
    fn random_operations_match_a_btreemap_model() {
        const SLOTS: usize = 3;
        for arity in 1..=3 {
            for seed in [7u64, 0x2545f4914f6cdd1d] {
                let mut rng = seed;
                let mut slots: Vec<(Runs<i64>, Model)> = vec![Default::default(); SLOTS];
                let mut most_runs = 0;
                for step in 0..1200u64 {
                    let i = (xorshift(&mut rng) % SLOTS as u64) as usize;
                    let growing = (step / 200) % 2 == 0;
                    let (r, model) = &mut slots[i];
                    match xorshift(&mut rng) % 8 {
                        0..=2 if growing => {
                            for _ in 0..xorshift(&mut rng) % 60 {
                                let k = random_key(&mut rng, arity);
                                let v = (xorshift(&mut rng) % 100) as i64;
                                let fresh = !model.contains_key(&k);
                                if fresh {
                                    model.insert(k.clone(), v);
                                }
                                if v % 2 == 0 {
                                    assert_eq!(r.insert(k, v), fresh);
                                } else {
                                    let made = r.insert_new(&k, v);
                                    assert_eq!(made.as_deref(), fresh.then_some(&k[..]));
                                }
                            }
                        }
                        0..=2 => {
                            // Members mostly, the front often, so runs
                            // fold both ways.
                            let stride = 1 + (xorshift(&mut rng) % 3) as usize;
                            let skip = 7 * (xorshift(&mut rng) % 2) as usize;
                            let mut ks: Vec<Tuple> = model
                                .keys()
                                .skip(skip)
                                .step_by(stride)
                                .take(40)
                                .cloned()
                                .collect();
                            ks.push(random_key(&mut rng, arity));
                            for k in ks {
                                assert_eq!(r.remove(&k), model.remove(&k), "remove {k}");
                            }
                        }
                        3 => {
                            let k = random_key(&mut rng, arity);
                            let delta = (xorshift(&mut rng) % 5) as i64 - 2;
                            match (r.get_mut(&k), model.get_mut(&k)) {
                                (Some(v), Some(m)) => {
                                    *v += delta;
                                    *m += delta;
                                }
                                (None, None) => {}
                                (got, want) => panic!("get_mut {k}: {got:?} vs {want:?}"),
                            }
                        }
                        4 => {
                            let n = xorshift(&mut rng) % if growing { 400 } else { 3 };
                            *model = (0..n)
                                .map(|_| {
                                    (random_key(&mut rng, arity), (xorshift(&mut rng) % 9) as i64)
                                })
                                .collect();
                            *r = Runs::from_sorted(model.iter().map(|(k, &v)| (k.clone(), v)));
                        }
                        5 if !growing => {
                            let all: Vec<Tuple> = model.keys().cloned().collect();
                            for k in all.iter().rev() {
                                assert_eq!(r.remove(k), model.remove(k));
                            }
                        }
                        _ => {
                            let j = (xorshift(&mut rng) % SLOTS as u64) as usize;
                            slots[i] = slots[j].clone();
                        }
                    }
                    most_runs = most_runs.max(slots[i].0.runs().len());
                    for (k, (r, model)) in slots.iter().enumerate() {
                        if k == i {
                            assert_matches_model(r, model, arity, &mut rng);
                        } else {
                            let entries = r.iter().map(|(k, v)| (k, v));
                            assert!(entries.eq(model.iter()), "slot {k} moved at step {step}");
                        }
                    }
                }
                assert!(most_runs > 4, "arity {arity}: at most {most_runs} runs");
            }
        }
    }

    /// Constants around every edge of the codes: early symbols, late
    /// ones (with interning indexes no process reaches, around the first
    /// one that shares its code), integers inside the window, at both of
    /// its edges, just beyond them, far beyond and at the ends of `i64`.
    fn edge_constants() -> Vec<Const> {
        let early = ["zz_word_a", "zz_word_b", "zz_word_c"].map(Const::sym);
        let late = [SYM_LATE - 1, SYM_LATE, SYM_LATE + 1, u32::MAX - 1]
            .map(|i| Const::Sym(crate::symbol::Sym::from_index(i)));
        let ints = [
            0,
            1,
            -1,
            INT_WINDOW - 1,
            INT_WINDOW,
            INT_WINDOW + 1,
            INT_WINDOW + 2,
            -INT_WINDOW + 1,
            -INT_WINDOW,
            -INT_WINDOW - 1,
            -INT_WINDOW - 2,
            1 << 40,
            -(1 << 40),
            i64::MAX,
            i64::MIN,
            i64::MAX - 1,
            i64::MIN + 1,
        ]
        .map(Const::Int);
        early.into_iter().chain(late).chain(ints).collect()
    }

    /// A key for messages: a late symbol cannot be rendered by name.
    fn show(key: &[Const]) -> String {
        let col = |c: &Const| match c {
            Const::Sym(s) => format!("#{}", s.index()),
            Const::Int(i) => i.to_string(),
        };
        key.iter().map(col).collect::<Vec<_>>().join(", ")
    }

    /// The word function is monotone in the tuple order, across arities 0
    /// to 3 and every prefix of a key: `word(x) < word(y)` implies
    /// `x < y`, equal keys have equal words, the word of a prefix is the
    /// key's word masked, and an exact word — what the searches and
    /// `Relation::from_rows` trust alone — belongs to its key: a key whose
    /// first columns tie it starts with it. Random pairs of keys drawn from [`edge_constants`], so ties
    /// on a shared code (a late symbol, an integer beyond the window)
    /// come often, in the first column and in the second.
    #[test]
    fn words_order_as_their_keys() {
        let pool = edge_constants();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |arity: usize| -> Vec<Const> {
            (0..arity)
                .map(|_| pool[(xorshift(&mut rng) % pool.len() as u64) as usize])
                .collect()
        };
        for _ in 0..20_000 {
            let (a, b) = (draw(3), draw(3));
            for (m, n) in (0..=3).flat_map(|m| (0..=3).map(move |n| (m, n))) {
                let (x, y) = (&a[..m], &b[..n]);
                let (wx, wy) = (word(x), word(y));
                let (kx, ky) = (show(x), show(y));
                assert_eq!(word(&a) & prefix_mask(m), wx, "mask of [{kx}]");
                if wx < wy {
                    assert!(x < y, "word [{kx}] < word [{ky}] but not the keys");
                }
                if wx > wy {
                    assert!(x > y, "word [{kx}] > word [{ky}] but not the keys");
                }
                if x == y {
                    assert_eq!(wx, wy, "[{kx}]: equal keys, unequal words");
                }
                // An exact word is its key's alone, so a tuple whose
                // first columns tie it starts with the key.
                if abbreviate(x).1 && m <= n && word(&b) & prefix_mask(m) == wx {
                    assert!(x == &b[..m], "[{kx}] is exact, [{ky}] ties it");
                }
            }
        }
    }

    /// A 0-ary container holds at most the empty tuple and has empty
    /// fences (its one fence is the empty key's word, 0); every operation
    /// still answers.
    #[test]
    fn a_zero_ary_container_has_empty_fences() {
        let empty = Tuple::empty();
        let mut r: Runs<i64> = Runs::default();
        assert_eq!(r.get(&[]), None);
        assert_eq!(r.prefix(&[]).count(), 0);
        assert!(r.insert(empty.clone(), 1));
        assert!(!r.insert(empty.clone(), 2));
        assert_eq!(r.fences(), [0]);
        *r.get_mut(&[]).expect("present") += 4;
        assert_eq!(r.get(&[]), Some(&5));
        let shared = r.clone();
        assert!(r.prefix(&[]).eq([&(empty.clone(), 5)]));
        assert_eq!(r.remove(&[]), Some(5));
        assert_eq!(r.remove(&[]), None);
        assert!(r.is_empty() && r.runs().is_empty() && r.prefix(&[]).next().is_none());
        assert_eq!(shared.get(&[]), Some(&5), "the clone kept its entry");
        let built = Runs::from_sorted([(empty.clone(), 3)]);
        assert_eq!((built.len(), built.get(&[])), (1, Some(&3)));
        assert_eq!(built.fences(), [0]);
        assert!(Runs::<i64>::from_sorted([]).is_empty());
    }
}
