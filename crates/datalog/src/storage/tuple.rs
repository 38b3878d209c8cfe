//! Ground tuples: the rows of extensional and materialized relations.

use crate::ast::{Atom, Const, Pred};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable ground tuple of constants. The constants sit behind an
/// `Arc`, so a clone — into another relation, an index bucket, an event —
/// is a reference-count bump, never an allocation; order, equality and
/// hash are those of the constants.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Tuple(Arc<[Const]>);

impl Tuple {
    /// Creates a tuple from constants.
    pub fn new(consts: impl Into<Vec<Const>>) -> Tuple {
        Tuple(consts.into().into())
    }

    /// The empty (0-ary) tuple.
    pub fn empty() -> Tuple {
        Tuple(Arc::new([]))
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Renders the tuple as the ground atom `pred(c1, ..., cn)`.
    pub fn to_atom(&self, pred: Pred) -> Atom {
        debug_assert_eq!(pred.arity, self.arity());
        Atom {
            pred,
            terms: self.0.iter().map(|&c| c.into()).collect(),
            span: None,
        }
    }
}

impl Deref for Tuple {
    type Target = [Const];
    fn deref(&self) -> &[Const] {
        &self.0
    }
}

impl From<&[Const]> for Tuple {
    fn from(consts: &[Const]) -> Tuple {
        Tuple(consts.into())
    }
}

impl From<Vec<Const>> for Tuple {
    fn from(v: Vec<Const>) -> Tuple {
        Tuple::new(v)
    }
}

impl FromIterator<Const> for Tuple {
    fn from_iter<I: IntoIterator<Item = Const>>(iter: I) -> Tuple {
        Tuple(iter.into_iter().collect())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// Convenience: builds a tuple of symbolic constants from names.
pub fn syms(names: &[&str]) -> Tuple {
    names.iter().map(|n| Const::sym(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_round_trips_to_atom() {
        let t = syms(&["john", "sales"]);
        let a = t.to_atom(Pred::new("works", 2));
        assert_eq!(a.to_string(), "works(john, sales)");
        assert_eq!(a.as_tuple().unwrap(), t.to_vec());
    }

    #[test]
    fn empty_tuple() {
        let t = Tuple::empty();
        assert_eq!(t.arity(), 0);
        assert_eq!(t.to_atom(Pred::new("ic1", 0)).to_string(), "ic1");
    }

    #[test]
    fn ordering_is_columnwise() {
        let a = syms(&["a", "b"]);
        let b = syms(&["a", "c"]);
        assert!(a < b || b < a); // total order exists
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }
}
