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
//! Beside the runs the spine keeps each run's last key, its *fence*, in one
//! flat array of constants. Finding the run that can hold a key — for a
//! lookup, a mutation or either end of a prefix range — binary-searches
//! the fences alone and dereferences no run until it has chosen one. The
//! fences share and copy with the spine, and change only where a run's
//! last key does.
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

type Run<V> = Arc<Vec<(Tuple, V)>>;

/// The runs and their fences. The fence of run `i` is its last key, kept
/// as `fences[i * arity..(i + 1) * arity]`: choosing a run searches this
/// one flat array and dereferences no run. Every key has `arity` columns
/// (a 0-ary container has empty fences).
#[derive(Clone, Debug)]
struct Spine<V> {
    runs: Vec<Run<V>>,
    fences: Vec<Const>,
    arity: usize,
}

impl<V> Default for Spine<V> {
    fn default() -> Spine<V> {
        Spine {
            runs: Vec::new(),
            fences: Vec::new(),
            arity: 0,
        }
    }
}

impl<V> Spine<V> {
    /// Index of the first run whose fence fails `below` (the number of
    /// runs when every fence passes); `below` must hold for a prefix of
    /// the runs.
    fn partition(&self, below: impl Fn(&[Const]) -> bool) -> usize {
        let a = self.arity;
        let (mut lo, mut hi) = (0, self.runs.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if below(&self.fences[mid * a..mid * a + a]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Sets the fence of run `i` to its last key.
    fn refence(&mut self, i: usize) {
        let a = self.arity;
        let last = &self.runs[i].last().expect("no run is empty").0;
        self.fences[i * a..(i + 1) * a].copy_from_slice(last);
    }

    /// Inserts a non-empty run at `i`, with its fence.
    fn insert_run(&mut self, i: usize, run: Vec<(Tuple, V)>) {
        let a = self.arity;
        let last = &run.last().expect("no run is empty").0;
        self.fences.splice(i * a..i * a, last.iter().copied());
        self.runs.insert(i, Arc::new(run));
    }

    /// Removes run `i` and its fence.
    fn remove_run(&mut self, i: usize) -> Run<V> {
        let a = self.arity;
        self.fences.drain(i * a..(i + 1) * a);
        self.runs.remove(i)
    }
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
        let mut spine = Spine::default();
        let mut run = Vec::with_capacity(RUN);
        let mut len = 0;
        for e in entries {
            debug_assert!(run.last().is_none_or(|(k, _): &(Tuple, V)| *k < e.0));
            if len == 0 {
                spine.arity = e.0.arity();
            }
            debug_assert_eq!(e.0.arity(), spine.arity, "one arity per container");
            if run.len() == RUN {
                let full = std::mem::replace(&mut run, Vec::with_capacity(RUN));
                spine.insert_run(spine.runs.len(), full);
            }
            run.push(e);
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
    /// smaller): a binary search of the fences alone. A shorter key sorts
    /// before every tuple extending it, so this also finds where a prefix
    /// range starts.
    fn locate(&self, key: &[Const]) -> usize {
        self.spine.partition(|fence| fence < key)
    }

    /// The value stored for `key`.
    pub fn get(&self, key: &[Const]) -> Option<&V> {
        let run = self.spine.runs.get(self.locate(key))?;
        let j = run.binary_search_by(|(k, _)| k[..].cmp(key)).ok()?;
        Some(&run[j].1)
    }

    /// Mutable access to the value stored for `key` (copies the run if it
    /// is shared).
    pub fn get_mut(&mut self, key: &[Const]) -> Option<&mut V> {
        let i = self.locate(key);
        let j = self
            .spine
            .runs
            .get(i)?
            .binary_search_by(|(k, _)| k[..].cmp(key))
            .ok()?;
        let run = Arc::make_mut(&mut Arc::make_mut(&mut self.spine).runs[i]);
        Some(&mut run[j].1)
    }

    /// Inserts `key → value` unless `key` is present (then nothing
    /// changes, nothing is copied); returns `true` iff it was inserted.
    pub fn insert(&mut self, key: Tuple, value: V) -> bool {
        if self.spine.runs.is_empty() {
            let spine = Arc::make_mut(&mut self.spine);
            spine.arity = key.arity();
            spine.insert_run(0, vec![(key, value)]);
            self.len = 1;
            return true;
        }
        debug_assert_eq!(key.arity(), self.spine.arity, "one arity per container");
        // Past the last key: the entry extends the last run.
        let i = self.locate(&key).min(self.spine.runs.len() - 1);
        let Err(j) = self.spine.runs[i].binary_search_by(|(k, _)| k.cmp(&key)) else {
            return false;
        };
        let spine = Arc::make_mut(&mut self.spine);
        let run = Arc::make_mut(&mut spine.runs[i]);
        run.insert(j, (key, value));
        if run.len() >= 2 * RUN {
            let upper = run.split_off(RUN);
            spine.insert_run(i + 1, upper);
        }
        spine.refence(i);
        self.len += 1;
        true
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &[Const]) -> Option<V> {
        let i = self.locate(key);
        let j = self
            .spine
            .runs
            .get(i)?
            .binary_search_by(|(k, _)| k[..].cmp(key))
            .ok()?;
        let spine = Arc::make_mut(&mut self.spine);
        let run = Arc::make_mut(&mut spine.runs[i]);
        let (_, value) = run.remove(j);
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
    /// so the iterator does not borrow `key`.
    pub fn prefix(&self, key: &[Const]) -> Iter<'_, V> {
        let n = key.len();
        let runs = &self.spine.runs;
        let run = self.locate(key);
        let pos = runs
            .get(run)
            .map_or(0, |r| r.partition_point(|(k, _)| k[..] < *key));
        let end_run = self.spine.partition(|fence| fence[..n] <= *key);
        let end = runs
            .get(end_run)
            .map_or(0, |r| r.partition_point(|(k, _)| k[..n] <= *key));
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

    /// The fences, flat, for tests that they are the runs' last keys.
    #[cfg(test)]
    pub(crate) fn fences(&self) -> &[Const] {
        &self.spine.fences
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
        let entry = &run[self.pos];
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
    /// column sorts a key strictly between two stored ones.
    fn random_key(rng: &mut u64, arity: usize) -> Tuple {
        let radix: &[u64] = [&[][..], &[2400], &[60, 40], &[6, 10, 40]][arity];
        let mut x = xorshift(rng) % 2400;
        let mut cols = vec![Const::Int(0); arity];
        for (col, r) in cols.iter_mut().zip(radix).rev() {
            *col = Const::Int(2 * (x % r) as i64);
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
            let (first, last) = (&run[0].0, &run.last().expect("no run is empty").0);
            keys.extend([first.clone(), last.clone()]);
            if let Some((Const::Int(c), init)) = last.split_last() {
                keys.push(init.iter().copied().chain([Const::Int(c + 1)]).collect());
            }
        }
        keys.push(vec![Const::Int(i64::MAX); arity].into());
        keys
    }

    /// Everything a reader can ask of `r` answers as the model does, the
    /// fences are the runs' last keys and the runs keep their sizes.
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
        let last_keys: Vec<Const> = r
            .runs()
            .iter()
            .flat_map(|run| run.last().expect("no run is empty").0.iter().copied())
            .collect();
        assert_eq!(r.fences(), last_keys, "fences");
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
                                assert_eq!(r.insert(k, v), fresh);
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

    /// A 0-ary container holds at most the empty tuple and has empty
    /// fences; every operation still answers.
    #[test]
    fn a_zero_ary_container_has_empty_fences() {
        let empty = Tuple::empty();
        let mut r: Runs<i64> = Runs::default();
        assert_eq!(r.get(&[]), None);
        assert_eq!(r.prefix(&[]).count(), 0);
        assert!(r.insert(empty.clone(), 1));
        assert!(!r.insert(empty.clone(), 2));
        assert!(r.fences().is_empty());
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
        assert!(built.fences().is_empty());
        assert!(Runs::<i64>::from_sorted([]).is_empty());
    }
}
