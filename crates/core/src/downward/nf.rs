//! The normal form manipulated by the downward interpreter: disjunctions of
//! conjunctions of signed ground *base-event* literals.
//!
//! §4.2: "The result of downward interpreting an event rule ... is a
//! disjunctive normal form, where each disjunctand defines an alternative
//! ... Each disjunctand may contain positive base event facts, which
//! constitute a possible transaction to be performed, and negative base
//! event facts, representing requirements that the transition must
//! satisfy." Old-database literals are *decided* during translation (they
//! are queries on the old state), so they never appear here.

use crate::error::{Error, Result};
use dduf_events::event::GroundEvent;
use std::collections::BTreeSet;

/// One disjunctand: events to perform plus events that must not occur.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Alt {
    /// Positive base events: the transaction to perform.
    pub pos: BTreeSet<GroundEvent>,
    /// Negative base events: must not be performed in the same transition.
    pub neg: BTreeSet<GroundEvent>,
}

impl Alt {
    /// The empty (always-true) disjunctand.
    pub fn verum() -> Alt {
        Alt::default()
    }

    /// A single positive event.
    pub fn of_pos(e: GroundEvent) -> Alt {
        Alt {
            pos: BTreeSet::from([e]),
            neg: BTreeSet::new(),
        }
    }

    /// A single negative event.
    pub fn of_neg(e: GroundEvent) -> Alt {
        Alt {
            pos: BTreeSet::new(),
            neg: BTreeSet::from([e]),
        }
    }

    /// Conjoins two disjunctands; `None` if contradictory. Contradictions:
    ///
    /// * the same event required and forbidden (`e ∧ ¬e`), as in example
    ///   5.3 where `(ins La(Maria) ∧ ¬ins La(Maria))` is dropped;
    /// * `ins Q(c̄) ∧ del Q(c̄)`: by the event definitions (1)/(2) the former
    ///   needs `¬Q°(c̄)` and the latter `Q°(c̄)`.
    pub fn conj(&self, other: &Alt) -> Option<Alt> {
        let mut pos = self.pos.clone();
        pos.extend(other.pos.iter().cloned());
        let mut neg = self.neg.clone();
        neg.extend(other.neg.iter().cloned());
        if pos.iter().any(|e| neg.contains(e)) {
            return None;
        }
        if pos.iter().any(|e| pos.contains(&e.inverse())) {
            return None;
        }
        Some(Alt { pos, neg })
    }

    /// True iff every literal of `self` occurs in `other` (so `self`
    /// logically subsumes `other`: `self ∨ other ≡ self`).
    pub fn subsumes(&self, other: &Alt) -> bool {
        self.pos.is_subset(&other.pos) && self.neg.is_subset(&other.neg)
    }
}

/// A disjunction of [`Alt`]s. Empty = false.
pub type Nf = Vec<Alt>;

/// The always-true NF.
pub fn verum() -> Nf {
    vec![Alt::verum()]
}

/// The always-false NF.
pub fn falsum() -> Nf {
    vec![]
}

/// Disjunction: concatenation with deduplication.
pub fn union(mut a: Nf, b: Nf) -> Nf {
    for alt in b {
        if !a.contains(&alt) {
            a.push(alt);
        }
    }
    a
}

/// Conjunction: cross product with contradiction pruning and a size cap.
pub fn conj(a: &Nf, b: &Nf, cap: usize) -> Result<Nf> {
    let mut out: Nf = Vec::new();
    for x in a {
        for y in b {
            if let Some(z) = x.conj(y) {
                if !out.contains(&z) {
                    out.push(z);
                    if out.len() > cap {
                        return Err(Error::LimitExceeded {
                            what: "alternatives",
                            limit: cap,
                        });
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Removes disjunctands subsumed by another (keeping the subsumer), and
/// exact duplicates. Preserves first-seen order among survivors.
pub fn prune_subsumed(nf: Nf) -> Nf {
    let mut out: Nf = Vec::new();
    for alt in nf {
        if out.iter().any(|o| o.subsumes(&alt)) {
            continue; // already covered (also handles duplicates)
        }
        out.retain(|o| !alt.subsumes(o));
        out.push(alt);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::ast::Pred;
    use dduf_datalog::storage::tuple::syms;

    fn ins(p: &str, c: &str) -> GroundEvent {
        GroundEvent::ins(Pred::new(p, 1), syms(&[c]))
    }
    fn del(p: &str, c: &str) -> GroundEvent {
        GroundEvent::del(Pred::new(p, 1), syms(&[c]))
    }

    #[test]
    fn conj_contradiction_same_event() {
        let a = Alt::of_pos(ins("la", "maria"));
        let b = Alt::of_neg(ins("la", "maria"));
        assert!(a.conj(&b).is_none());
    }

    #[test]
    fn conj_contradiction_ins_del() {
        let a = Alt::of_pos(ins("q", "x"));
        let b = Alt::of_pos(del("q", "x"));
        assert!(a.conj(&b).is_none());
    }

    #[test]
    fn conj_compatible_merges() {
        let a = Alt::of_pos(del("r", "b"));
        let b = Alt::of_neg(del("q", "b"));
        let c = a.conj(&b).unwrap();
        assert_eq!(c.pos.len(), 1);
        assert_eq!(c.neg.len(), 1);
    }

    #[test]
    fn nf_conj_prunes_contradictions() {
        // Example 5.3 shape: (ιLa) ∧ (¬ιLa ∨ ιWorks) = (ιLa ∧ ιWorks)
        let t = vec![Alt::of_pos(ins("la", "maria"))];
        let not_unemp = vec![
            Alt::of_neg(ins("la", "maria")),
            Alt::of_pos(ins("works", "maria")),
        ];
        let out = conj(&t, &not_unemp, 100).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].pos.contains(&ins("la", "maria")));
        assert!(out[0].pos.contains(&ins("works", "maria")));
    }

    #[test]
    fn cap_enforced() {
        // 2^4 combinations with cap 8 must error.
        let parts: Vec<Nf> = (0..4)
            .map(|i| {
                vec![
                    Alt::of_pos(ins("a", &format!("c{i}"))),
                    Alt::of_pos(ins("b", &format!("c{i}"))),
                ]
            })
            .collect();
        let mut acc = verum();
        let result: Result<()> = (|| {
            for p in &parts {
                acc = conj(&acc, p, 8)?;
            }
            Ok(())
        })();
        assert!(matches!(result, Err(Error::LimitExceeded { .. })));
    }

    #[test]
    fn subsumption_pruning() {
        let small = Alt::of_pos(del("r", "b"));
        let big = small.conj(&Alt::of_pos(ins("s", "c"))).unwrap();
        let pruned = prune_subsumed(vec![big, small.clone()]);
        assert_eq!(pruned, vec![small]);
    }

    #[test]
    fn duplicate_removal() {
        let a = Alt::of_pos(ins("p", "x"));
        let pruned = prune_subsumed(vec![a.clone(), a.clone()]);
        assert_eq!(pruned.len(), 1);
    }

    #[test]
    fn union_dedupes() {
        let a = Alt::of_pos(ins("p", "x"));
        let out = union(vec![a.clone()], vec![a.clone()]);
        assert_eq!(out.len(), 1);
    }
}
