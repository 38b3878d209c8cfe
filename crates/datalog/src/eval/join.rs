//! Conjunction evaluation, shared vocabulary and reference: the binding
//! and literal types every evaluator speaks, and [`eval_conjunct`], the
//! greedy loop kept as the *reference* the production evaluator
//! ([`crate::eval::plan::JoinPlan::run`]) is tested against.
//!
//! This is deliberately generic over the literal type: the datalog fixpoint
//! engines evaluate [`crate::ast::Literal`] conjunctions, while the event
//! crate evaluates transition-rule conjuncts whose literals are backed by
//! three different relation sources (old state, base events, derived
//! events). Both supply a per-occurrence relation lookup.

use crate::ast::{Const, Term, Var};
use crate::storage::relation::Relation;
use crate::storage::tuple::Tuple;
use std::collections::BTreeMap;

/// A set of variable bindings.
pub type Bindings = BTreeMap<Var, Const>;

/// Anything that looks like a signed atom to the join pipeline.
pub trait JoinLit {
    /// `true` for a positive occurrence, `false` for a negated one.
    fn positive(&self) -> bool;
    /// The argument terms.
    fn terms(&self) -> &[Term];
}

impl JoinLit for crate::ast::Literal {
    fn positive(&self) -> bool {
        self.positive
    }
    fn terms(&self) -> &[Term] {
        &self.atom.terms
    }
}

impl<L: JoinLit + ?Sized> JoinLit for &L {
    fn positive(&self) -> bool {
        (**self).positive()
    }
    fn terms(&self) -> &[Term] {
        (**self).terms()
    }
}

/// Applies bindings to a term.
pub fn resolve(term: Term, b: &Bindings) -> Term {
    match term {
        Term::Var(v) => b.get(&v).map_or(term, |&c| Term::Const(c)),
        Term::Const(_) => term,
    }
}

/// Applies bindings to a term slice, producing a tuple if fully ground.
pub fn ground_terms(terms: &[Term], b: &Bindings) -> Option<Tuple> {
    terms
        .iter()
        .map(|&t| resolve(t, b).as_const())
        .collect::<Option<Vec<Const>>>()
        .map(Tuple::new)
}

/// Number of arguments that are ground under `b`.
fn bound_count(terms: &[Term], b: &Bindings) -> usize {
    terms.iter().filter(|&&t| resolve(t, b).is_ground()).count()
}

/// Extends `b` by matching `terms` against a concrete `tuple`, handling
/// repeated variables. Returns `None` on mismatch.
pub fn match_tuple(terms: &[Term], tuple: &Tuple, b: &Bindings) -> Option<Bindings> {
    debug_assert_eq!(terms.len(), tuple.arity());
    let mut out = b.clone();
    for (&t, &c) in terms.iter().zip(tuple.iter()) {
        match resolve(t, &out) {
            Term::Const(k) => {
                if k != c {
                    return None;
                }
            }
            Term::Var(v) => {
                out.insert(v, c);
            }
        }
    }
    Some(out)
}

/// The selection pattern for a literal under current bindings.
fn pattern(terms: &[Term], b: &Bindings) -> Vec<Option<Const>> {
    terms.iter().map(|&t| resolve(t, b).as_const()).collect()
}

/// Join-level work counters of [`crate::eval::plan::JoinPlan::run`]:
/// one `probe` per relation lookup (an index probe, a scan or a ground
/// membership test), one `match` per partial solution the lookup kept
/// or extended. Every probe is classified as *indexed* (answered through
/// the sorted runs, a secondary index or a keyed membership test) or
/// *scan* (an unindexed iteration), so `indexed_probes + scan_probes ==
/// probes`.
///
/// The plan is static, so the counters are a function of the program
/// and the data (DESIGN.md §12).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Relation lookups issued.
    pub probes: u64,
    /// Lookups that retained or extended a binding.
    pub matches: u64,
    /// Lookups answered through an index (or a keyed membership test).
    pub indexed_probes: u64,
    /// Lookups that iterated the relation.
    pub scan_probes: u64,
}

impl JoinStats {
    /// Accumulates another stats bundle into this one.
    pub fn merge(&mut self, other: JoinStats) {
        self.probes += other.probes;
        self.matches += other.matches;
        self.indexed_probes += other.indexed_probes;
        self.scan_probes += other.scan_probes;
    }
}

/// The reference evaluator: evaluates the conjunction `lits` and returns
/// every extension of `seed` that satisfies it. `rel_of(i)` supplies the
/// relation backing literal `i` (for negative literals, the relation
/// against which absence is checked). No engine calls it: it re-derives
/// its literal order on every call and counts nothing, and exists so that
/// compiled plans have an independent answer to be checked against (the
/// sweep in `plan::tests`, and `new_state_holds` in the core crate).
///
/// Literals are consumed greedily: ground negative literals as soon as
/// possible (cheap filters), then the positive literal with the most bound
/// arguments and the smallest backing relation. With allowed (range
/// restricted) conjunctions every negative literal is fully ground by the
/// time only negatives remain; a non-ground trailing negative literal is
/// interpreted as "no instance exists" (¬∃), which is the reading required
/// by the downward interpretation of negative events over finite domains.
pub fn eval_conjunct<'a, L: JoinLit>(
    lits: &[L],
    rel_of: &dyn Fn(usize) -> &'a Relation,
    seed: &Bindings,
) -> Vec<Bindings> {
    let mut frontier = vec![seed.clone()];
    let mut remaining: Vec<usize> = (0..lits.len()).collect();

    while !remaining.is_empty() {
        if frontier.is_empty() {
            return vec![];
        }
        // All frontier bindings bind the same variable set, so ordering
        // decisions made against the first are valid for all.
        let probe = &frontier[0];

        // 1. Ground negative literal? Apply as a filter.
        if let Some(pos) = remaining.iter().position(|&i| {
            !lits[i].positive() && bound_count(lits[i].terms(), probe) == lits[i].terms().len()
        }) {
            let i = remaining.remove(pos);
            let rel = rel_of(i);
            frontier.retain(|b| {
                let t = ground_terms(lits[i].terms(), b).expect("checked ground");
                !rel.contains(&t)
            });
            continue;
        }

        // 2. Best positive literal: most bound args, then smallest relation.
        let best = remaining
            .iter()
            .enumerate()
            .filter(|&(_, &i)| lits[i].positive())
            .max_by_key(|&(_, &i)| {
                (
                    bound_count(lits[i].terms(), probe),
                    usize::MAX - rel_of(i).len(),
                )
            })
            .map(|(pos, _)| pos);

        if let Some(pos) = best {
            let i = remaining.remove(pos);
            let rel = rel_of(i);
            let mut next = Vec::new();
            for b in &frontier {
                for tuple in rel.select(&pattern(lits[i].terms(), b)) {
                    next.extend(match_tuple(lits[i].terms(), &tuple, b));
                }
            }
            frontier = next;
            continue;
        }

        // 3. Only non-ground negative literals remain: ¬∃ semantics — keep
        // a binding iff the literal has no matching tuple in its relation.
        let i = remaining.remove(0);
        let rel = rel_of(i);
        frontier.retain(|b| {
            !rel.select(&pattern(lits[i].terms(), b))
                .iter()
                .any(|t| match_tuple(lits[i].terms(), t, b).is_some())
        });
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Literal};
    use crate::eval::plan::{eval_plan_stats, JoinPlan};
    use crate::storage::tuple::syms;
    use std::collections::BTreeSet;

    fn lit(pos: bool, name: &str, vars: &[&str]) -> Literal {
        let atom = Atom::new(name, vars.iter().map(|v| Term::var(v)).collect());
        if pos {
            Literal::pos(atom)
        } else {
            Literal::neg(atom)
        }
    }

    fn rel(rows: &[&[&str]]) -> Relation {
        rows.iter().map(|r| syms(r)).collect()
    }

    #[test]
    fn single_positive_literal_enumerates() {
        let q = rel(&[&["a"], &["b"]]);
        let lits = vec![lit(true, "q", &["X"])];
        let out = eval_conjunct(&lits, &|_| &q, &Bindings::new());
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn join_with_shared_variable() {
        let q = rel(&[&["a"], &["b"]]);
        let r = rel(&[&["b"], &["c"]]);
        let lits = vec![lit(true, "q", &["X"]), lit(true, "r", &["X"])];
        let rels = [&q, &r];
        let out = eval_conjunct(&lits, &|i| rels[i], &Bindings::new());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][&Var::new("X")], Const::sym("b"));
    }

    #[test]
    fn negative_literal_filters() {
        // q(X), not r(X)  with q={a,b}, r={b}  =>  X=a
        let q = rel(&[&["a"], &["b"]]);
        let r = rel(&[&["b"]]);
        let lits = vec![lit(true, "q", &["X"]), lit(false, "r", &["X"])];
        let rels = [&q, &r];
        let out = eval_conjunct(&lits, &|i| rels[i], &Bindings::new());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][&Var::new("X")], Const::sym("a"));
    }

    #[test]
    fn repeated_variable_in_literal() {
        // e(X, X)
        let e = rel(&[&["a", "a"], &["a", "b"]]);
        let lits = vec![Literal::pos(Atom::new(
            "e",
            vec![Term::var("X"), Term::var("X")],
        ))];
        let out = eval_conjunct(&lits, &|_| &e, &Bindings::new());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][&Var::new("X")], Const::sym("a"));
    }

    #[test]
    fn constant_argument_restricts() {
        let works = rel(&[&["john", "sales"], &["mary", "hr"]]);
        let lits = vec![Literal::pos(Atom::new(
            "works",
            vec![Term::var("X"), Term::sym("hr")],
        ))];
        let out = eval_conjunct(&lits, &|_| &works, &Bindings::new());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][&Var::new("X")], Const::sym("mary"));
    }

    #[test]
    fn seed_bindings_respected() {
        let q = rel(&[&["a"], &["b"]]);
        let lits = vec![lit(true, "q", &["X"])];
        let mut seed = Bindings::new();
        seed.insert(Var::new("X"), Const::sym("b"));
        let out = eval_conjunct(&lits, &|_| &q, &seed);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][&Var::new("X")], Const::sym("b"));
    }

    #[test]
    fn nonground_negative_is_not_exists() {
        // not q(Y) with q nonempty: no binding survives (¬∃Y q(Y) is false).
        let q = rel(&[&["a"]]);
        let lits = vec![lit(false, "q", &["Y"])];
        let out = eval_conjunct(&lits, &|_| &q, &Bindings::new());
        assert!(out.is_empty());
        // and with q empty it survives
        let empty = Relation::new();
        let out = eval_conjunct(&lits, &|_| &empty, &Bindings::new());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn empty_conjunction_yields_seed() {
        let lits: Vec<Literal> = vec![];
        let out = eval_conjunct(&lits, &|_| unreachable!(), &Bindings::new());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn join_stats_count_probes_and_matches() {
        // q(X), not r(X) with q={a,b}, r={b}: one select probe for q
        // (2 matches), two ground probes for r (1 survivor).
        let q = rel(&[&["a"], &["b"]]);
        let r = rel(&[&["b"]]);
        let lits = vec![lit(true, "q", &["X"]), lit(false, "r", &["X"])];
        let rels = [&q, &r];
        let plan = JoinPlan::compile(&lits, &BTreeSet::new(), None);
        let mut stats = JoinStats::default();
        let run =
            |stats: &mut JoinStats| eval_plan_stats(&plan, &|i| rels[i], &Bindings::new(), stats);
        assert_eq!(
            run(&mut stats),
            eval_conjunct(&lits, &|i| rels[i], &Bindings::new())
        );
        let once = JoinStats {
            probes: 3,
            matches: 3,
            indexed_probes: 2,
            scan_probes: 1,
        };
        assert_eq!(stats, once);
        // Identical rerun accumulates deterministically.
        run(&mut stats);
        let mut twice = once;
        twice.merge(once);
        assert_eq!(stats, twice);
    }

    #[test]
    fn ground_projection() {
        let mut b = Bindings::new();
        b.insert(Var::new("X"), Const::sym("a"));
        let t = ground_terms(&[Term::var("X"), Term::sym("k")], &b).unwrap();
        assert_eq!(t, syms(&["a", "k"]));
        assert!(ground_terms(&[Term::var("Z")], &b).is_none());
    }
}
