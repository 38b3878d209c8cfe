//! The one ordered container of the storage layer: a persistent map from
//! tuples to values, kept as sorted *runs* of about [`RUN`] entries behind
//! `Arc`s under one spine.
//!
//! `clone()` is a pointer bump: the copy shares the spine and every run
//! with its origin. A mutation copies the spine (pointers only) if it is
//! shared and then only the runs it touches; everything else stays shared,
//! so the old and the new state of a transaction, the staging processor
//! and every published snapshot hold one copy of what the transaction did
//! not change. A run that reaches `2 * RUN` entries splits in two; one
//! that falls under `RUN / 2` is folded into a neighbour (and the pair
//! re-split when that overfills), so churn cannot degrade the spine into
//! many tiny runs. Iteration is ascending tuple order.
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

/// A persistent ordered map from [`Tuple`]s to `V`.
#[derive(Clone, Debug)]
pub struct Runs<V> {
    spine: Arc<Vec<Run<V>>>,
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
    /// Builds a map from entries in strictly ascending tuple order.
    pub fn from_sorted(entries: impl IntoIterator<Item = (Tuple, V)>) -> Runs<V> {
        let mut spine: Vec<Run<V>> = Vec::new();
        let mut run = Vec::with_capacity(RUN);
        let mut len = 0;
        for e in entries {
            debug_assert!(run.last().is_none_or(|(k, _): &(Tuple, V)| *k < e.0));
            if run.len() == RUN {
                spine.push(Arc::new(std::mem::replace(
                    &mut run,
                    Vec::with_capacity(RUN),
                )));
            }
            run.push(e);
            len += 1;
        }
        if !run.is_empty() {
            spine.push(Arc::new(run));
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

    /// Index of the first run whose last key is `>= key`, i.e. the only
    /// run that can hold `key` (the spine's length when every key is
    /// smaller). A shorter key sorts before every tuple extending it, so
    /// this also finds where a prefix range starts.
    fn locate(&self, key: &[Const]) -> usize {
        self.spine
            .partition_point(|run| run.last().expect("no run is empty").0[..] < *key)
    }

    /// The value stored for `key`.
    pub fn get(&self, key: &[Const]) -> Option<&V> {
        let run = self.spine.get(self.locate(key))?;
        let j = run.binary_search_by(|(k, _)| k[..].cmp(key)).ok()?;
        Some(&run[j].1)
    }

    /// Mutable access to the value stored for `key` (copies the run if it
    /// is shared).
    pub fn get_mut(&mut self, key: &[Const]) -> Option<&mut V> {
        let i = self.locate(key);
        let j = self
            .spine
            .get(i)?
            .binary_search_by(|(k, _)| k[..].cmp(key))
            .ok()?;
        let run = Arc::make_mut(&mut Arc::make_mut(&mut self.spine)[i]);
        Some(&mut run[j].1)
    }

    /// Inserts `key → value` unless `key` is present (then nothing
    /// changes, nothing is copied); returns `true` iff it was inserted.
    pub fn insert(&mut self, key: Tuple, value: V) -> bool {
        if self.spine.is_empty() {
            Arc::make_mut(&mut self.spine).push(Arc::new(vec![(key, value)]));
            self.len = 1;
            return true;
        }
        // Past the last key: the entry extends the last run.
        let i = self.locate(&key).min(self.spine.len() - 1);
        let Err(j) = self.spine[i].binary_search_by(|(k, _)| k.cmp(&key)) else {
            return false;
        };
        let spine = Arc::make_mut(&mut self.spine);
        let run = Arc::make_mut(&mut spine[i]);
        run.insert(j, (key, value));
        if run.len() >= 2 * RUN {
            let upper = run.split_off(RUN);
            spine.insert(i + 1, Arc::new(upper));
        }
        self.len += 1;
        true
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &[Const]) -> Option<V> {
        let i = self.locate(key);
        let j = self
            .spine
            .get(i)?
            .binary_search_by(|(k, _)| k[..].cmp(key))
            .ok()?;
        let spine = Arc::make_mut(&mut self.spine);
        let run = Arc::make_mut(&mut spine[i]);
        let (_, value) = run.remove(j);
        let left = run.len();
        self.len -= 1;
        if spine.len() == 1 {
            if left == 0 {
                spine.clear();
            }
        } else if left < RUN / 2 {
            // Fold the underfull run into a neighbour; re-split the pair
            // when that overfills, so both halves end up at least `RUN`.
            let (a, b) = if i > 0 { (i - 1, i) } else { (i, i + 1) };
            let upper = spine.remove(b);
            let lower = Arc::make_mut(&mut spine[a]);
            match Arc::try_unwrap(upper) {
                Ok(owned) => lower.extend(owned),
                Err(shared) => lower.extend(shared.iter().cloned()),
            }
            if lower.len() >= 2 * RUN {
                let upper = lower.split_off(lower.len() / 2);
                spine.insert(b, Arc::new(upper));
            }
        }
        Some(value)
    }

    /// All entries in ascending tuple order.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            spine: &self.spine,
            run: 0,
            pos: 0,
            end_run: self.spine.len(),
            end: 0,
        }
    }

    /// The entries whose tuples start with `key`, in ascending order: one
    /// contiguous stretch, since a shorter key sorts before every tuple
    /// extending it. Both ends are found up front, so the iterator does
    /// not borrow `key`.
    pub fn prefix(&self, key: &[Const]) -> Iter<'_, V> {
        let n = key.len();
        let run = self.locate(key);
        let pos = self
            .spine
            .get(run)
            .map_or(0, |r| r.partition_point(|(k, _)| k[..] < *key));
        let end_run = self
            .spine
            .partition_point(|r| r.last().expect("no run is empty").0[..n] <= *key);
        let end = self
            .spine
            .get(end_run)
            .map_or(0, |r| r.partition_point(|(k, _)| k[..n] <= *key));
        Iter {
            spine: &self.spine,
            run,
            pos,
            end_run,
            end,
        }
    }

    /// The runs, for tests of the size invariant and of sharing.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> &[Run<V>] {
        &self.spine
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
