//! Compiled join plans: adorned literal orders computed once per (rule,
//! delta-occurrence) pair, in the style of Ullman's bound/free adornments
//! (the same machinery underlying the magic-sets transform in
//! [`crate::magic`]).
//!
//! This is the one conjunction evaluator: every engine and every one-shot
//! query compiles a [`JoinPlan`] and runs it through [`eval_plan_stats`]
//! (or its stats-discarding wrapper [`eval_seeded`]). The greedy loop in
//! [`crate::eval::join`] is only the reference it is tested against. A
//! plan fixes the literal order ahead of time, for the fixpoint engines
//! from static information only — the literal list, the variables bound by
//! the seed, and which occurrence (if any) is the semi-naive delta:
//!
//! * the delta occurrence is pinned first (differential evaluation wants
//!   every derivation to pass through the delta);
//! * fully-ground negative literals are hoisted as early as safety allows
//!   (they are pure filters, so evaluating them sooner only shrinks the
//!   frontier);
//! * remaining positive literals are chosen by bound-column count (the
//!   static selectivity proxy: more bound columns means a tighter probe),
//!   ties broken by fewest free variables, then by body position;
//! * non-ground negative literals keep their ¬∃ reading and therefore run
//!   only after every positive literal, exactly as the reference
//!   schedules them.
//!
//! Each positive (and partially-bound negative) step is annotated with its
//! *bound-pattern signature*: the set of columns whose terms are constants
//! or already-bound variables when the step is reached. A step probes its
//! signature through [`Relation::probe_cols`], the one index policy: a
//! bound prefix is answered from the sorted runs, any other column set
//! from a hash index the relation builds on first use, and a relation
//! below the indexing floor is scanned.
//!
//! Because such a plan depends only on the rule and the static binding
//! pattern — never on frontier or relation contents — and a probe is
//! indexed exactly when its relation is large enough, every [`JoinStats`]
//! counter is a function of the program and the data (DESIGN.md §12).
//!
//! The plans [`eval_seeded`] compiles lazily, for callers whose counters
//! are discarded, take one dynamic input as well: among equally bound
//! positive literals the one over the smaller relation goes first. Body
//! position is a poor proxy there — a head-bound
//! `exec(A, H) :- exec(A, S), hacl(S, H), open(H)` would enumerate what
//! `A` reaches before asking which three hosts reach `H`.

use crate::ast::{Const, Term, Var};
use crate::eval::join::{ground_terms, match_tuple, resolve, Bindings, JoinLit, JoinStats};
use crate::storage::relation::Relation;
use crate::storage::tuple::Tuple;
use std::collections::BTreeSet;

/// One step of a compiled plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Enumerate the pinned delta occurrence. Counts no probes, only one
    /// match per delta tuple that fits the seed.
    DeltaScan {
        /// Body position of the delta occurrence.
        lit: usize,
    },
    /// Probe a positive literal through the composite index on `cols`
    /// (its bound-pattern signature).
    Probe {
        /// Body position of the literal.
        lit: usize,
        /// Its bound-pattern signature (strictly ascending columns).
        cols: Box<[usize]>,
    },
    /// Scan a positive literal with no bound columns.
    Scan {
        /// Body position of the literal.
        lit: usize,
    },
    /// Filter through a fully-ground negative literal (membership test).
    NegGround {
        /// Body position of the literal.
        lit: usize,
    },
    /// Trailing non-ground negative literal (¬∃) with at least one bound
    /// column: probe the signature, keep the binding iff nothing matches.
    NegProbe {
        /// Body position of the literal.
        lit: usize,
        /// Its bound-pattern signature (strictly ascending columns).
        cols: Box<[usize]>,
    },
    /// Trailing non-ground negative literal with no bound columns.
    NegScan {
        /// Body position of the literal.
        lit: usize,
    },
}

impl Step {
    /// The body position this step evaluates.
    pub fn lit(&self) -> usize {
        match *self {
            Step::DeltaScan { lit }
            | Step::Probe { lit, .. }
            | Step::Scan { lit }
            | Step::NegGround { lit }
            | Step::NegProbe { lit, .. }
            | Step::NegScan { lit } => lit,
        }
    }
}

/// A compiled join plan for one conjunction under one static binding
/// pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinPlan {
    steps: Vec<Step>,
}

impl JoinPlan {
    /// Compiles a plan for `lits` given the variables bound by the seed
    /// and an optional pinned delta occurrence (which must be a positive
    /// literal). Depends only on these static inputs.
    pub fn compile<L: JoinLit>(
        lits: &[L],
        seed_bound: &BTreeSet<Var>,
        pinned: Option<usize>,
    ) -> JoinPlan {
        JoinPlan::compile_sized(lits, seed_bound, pinned, &|_| 0)
    }

    /// [`compile`](Self::compile) with one dynamic input: `size_of(i)`, the
    /// number of tuples literal `i` ranges over, breaks ties among equally
    /// bound positive literals (the smaller relation first; a fully bound
    /// literal is a membership test and counts as 0). Only
    /// [`eval_seeded`]'s lazily compiled plans pass real sizes: their join
    /// counters are discarded, so nothing observable depends on the order.
    fn compile_sized<L: JoinLit>(
        lits: &[L],
        seed_bound: &BTreeSet<Var>,
        pinned: Option<usize>,
        size_of: &dyn Fn(usize) -> usize,
    ) -> JoinPlan {
        let mut bound = seed_bound.clone();
        let mut steps = Vec::with_capacity(lits.len());
        let mut remaining: Vec<usize> = (0..lits.len()).collect();

        let emit_positive =
            |i: usize, is_delta: bool, bound: &mut BTreeSet<Var>, steps: &mut Vec<Step>| {
                let cols = bound_cols(lits[i].terms(), bound);
                if is_delta {
                    steps.push(Step::DeltaScan { lit: i });
                } else if cols.is_empty() {
                    steps.push(Step::Scan { lit: i });
                } else {
                    steps.push(Step::Probe { lit: i, cols });
                }
                for t in lits[i].terms() {
                    if let Term::Var(v) = t {
                        bound.insert(*v);
                    }
                }
            };

        // The delta drives: every differential derivation passes through it.
        if let Some(d) = pinned {
            debug_assert!(lits[d].positive(), "pinned occurrence must be positive");
            remaining.retain(|&i| i != d);
            emit_positive(d, true, &mut bound, &mut steps);
        }

        loop {
            // Hoist negative literals as soon as they are fully ground:
            // they are filters, so earlier is strictly better.
            while let Some(pos) = remaining
                .iter()
                .position(|&i| !lits[i].positive() && fully_bound(lits[i].terms(), &bound))
            {
                steps.push(Step::NegGround {
                    lit: remaining.remove(pos),
                });
            }
            // Best positive literal: most bound columns, then fewest free
            // variables, then smallest relation, then body position. All
            // static but the size.
            let best = remaining
                .iter()
                .enumerate()
                .filter(|&(_, &i)| lits[i].positive())
                .max_by_key(|&(_, &i)| {
                    let free = free_vars(lits[i].terms(), &bound);
                    (
                        bound_cols(lits[i].terms(), &bound).len(),
                        std::cmp::Reverse(free),
                        std::cmp::Reverse(if free == 0 { 0 } else { size_of(i) }),
                        std::cmp::Reverse(i),
                    )
                })
                .map(|(pos, _)| pos);
            let Some(pos) = best else { break };
            let i = remaining.remove(pos);
            emit_positive(i, false, &mut bound, &mut steps);
        }

        // Only non-ground negatives remain: ¬∃ semantics, evaluated after
        // every positive literal (evaluating them earlier, with more free
        // variables, would strengthen the condition and change results).
        for i in remaining {
            let cols = bound_cols(lits[i].terms(), &bound);
            if cols.is_empty() {
                steps.push(Step::NegScan { lit: i });
            } else {
                steps.push(Step::NegProbe { lit: i, cols });
            }
        }

        JoinPlan { steps }
    }

    /// The ordered steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }
}

/// The bound-pattern signature of a literal under `bound`: the strictly
/// ascending set of columns whose terms are constants or bound variables.
/// A repeated variable's second occurrence within the literal is *not*
/// part of the signature unless the variable is already bound — the
/// equality is enforced by [`match_tuple`] at evaluation time.
fn bound_cols(terms: &[Term], bound: &BTreeSet<Var>) -> Box<[usize]> {
    terms
        .iter()
        .enumerate()
        .filter(|(_, t)| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        })
        .map(|(i, _)| i)
        .collect()
}

fn fully_bound(terms: &[Term], bound: &BTreeSet<Var>) -> bool {
    terms.iter().all(|t| match t {
        Term::Const(_) => true,
        Term::Var(v) => bound.contains(v),
    })
}

/// Number of distinct unbound variables in `terms`.
fn free_vars(terms: &[Term], bound: &BTreeSet<Var>) -> usize {
    terms
        .iter()
        .filter_map(|t| match t {
            Term::Var(v) if !bound.contains(v) => Some(*v),
            _ => None,
        })
        .collect::<BTreeSet<Var>>()
        .len()
}

/// Evaluates `lits` under a compiled `plan`, returning every extension of
/// `seed` that satisfies the conjunction — the same answer set as the
/// reference loop in [`crate::eval::join`], in a possibly different
/// order (callers deduplicate through `BTreeSet`-backed relations, so
/// engine output is unaffected).
///
/// Counting: every step except [`Step::DeltaScan`] counts one probe per
/// frontier binding, classified as indexed (a [`Relation::probe_cols`]
/// lookup it reports as indexed, or a membership test) or scan (an
/// iteration). `probe_cols` reports a probe as indexed exactly when the
/// relation has at least `INDEX_MIN` tuples — never by what its shared
/// index cache holds — so the split does not depend on what an earlier
/// evaluation built.
pub fn eval_plan_stats<'a, L: JoinLit>(
    plan: &JoinPlan,
    lits: &[L],
    rel_of: &dyn Fn(usize) -> &'a Relation,
    seed: &Bindings,
    stats: &mut JoinStats,
) -> Vec<Bindings> {
    let mut frontier = vec![seed.clone()];
    for step in &plan.steps {
        if frontier.is_empty() {
            return frontier;
        }
        let rel = rel_of(step.lit());
        match step {
            Step::DeltaScan { lit } => {
                let terms = lits[*lit].terms();
                let mut next = Vec::new();
                for b in &frontier {
                    for t in rel.iter() {
                        if let Some(ext) = match_tuple(terms, t, b) {
                            stats.matches += 1;
                            next.push(ext);
                        }
                    }
                }
                frontier = next;
            }
            Step::Probe { lit, cols } => {
                let terms = lits[*lit].terms();
                let mut next = Vec::new();
                let mut key: Vec<Const> = Vec::with_capacity(cols.len());
                for b in &frontier {
                    key.clear();
                    key.extend(cols.iter().map(|&c| {
                        resolve(terms[c], b)
                            .as_const()
                            .expect("plan invariant: signature columns are bound")
                    }));
                    let tuples = probe(rel, cols, &key, stats);
                    for t in &tuples {
                        if let Some(ext) = match_tuple(terms, t, b) {
                            stats.matches += 1;
                            next.push(ext);
                        }
                    }
                }
                frontier = next;
            }
            Step::Scan { lit } => {
                let terms = lits[*lit].terms();
                let mut next = Vec::new();
                for b in &frontier {
                    stats.probes += 1;
                    stats.scan_probes += 1;
                    for t in rel.iter() {
                        if let Some(ext) = match_tuple(terms, t, b) {
                            stats.matches += 1;
                            next.push(ext);
                        }
                    }
                }
                frontier = next;
            }
            Step::NegGround { lit } => {
                let terms = lits[*lit].terms();
                frontier.retain(|b| {
                    let t = ground_terms(terms, b).expect("plan invariant: literal is ground");
                    stats.probes += 1;
                    stats.indexed_probes += 1;
                    let keep = !rel.contains(&t);
                    stats.matches += u64::from(keep);
                    keep
                });
            }
            Step::NegProbe { lit, cols } => {
                let terms = lits[*lit].terms();
                let mut key: Vec<Const> = Vec::with_capacity(cols.len());
                frontier.retain(|b| {
                    key.clear();
                    key.extend(cols.iter().map(|&c| {
                        resolve(terms[c], b)
                            .as_const()
                            .expect("plan invariant: signature columns are bound")
                    }));
                    let tuples = probe(rel, cols, &key, stats);
                    let keep = !tuples.iter().any(|t| match_tuple(terms, t, b).is_some());
                    stats.matches += u64::from(keep);
                    keep
                });
            }
            Step::NegScan { lit } => {
                let terms = lits[*lit].terms();
                frontier.retain(|b| {
                    stats.probes += 1;
                    stats.scan_probes += 1;
                    let keep = !rel.iter().any(|t| match_tuple(terms, t, b).is_some());
                    stats.matches += u64::from(keep);
                    keep
                });
            }
        }
    }
    frontier
}

/// One counted [`Relation::probe_cols`] lookup.
fn probe(rel: &Relation, cols: &[usize], key: &[Const], stats: &mut JoinStats) -> Vec<Tuple> {
    let (tuples, indexed) = rel.probe_cols(cols, key);
    stats.probes += 1;
    stats.indexed_probes += u64::from(indexed);
    stats.scan_probes += u64::from(!indexed);
    tuples
}

/// Evaluates `lits` from `seed` for a caller outside the fixpoint engines
/// — a query, an explanation, a maintenance firing — whose join counters
/// are discarded.
///
/// `plan` is the caller's slot for this conjunction. It is compiled on
/// first use for the variable set `seed` binds — and for the sizes the
/// relations have then, which break ties among equally bound literals —
/// and reused for as long as the caller keeps the slot, so every seed
/// passed with one slot must bind the same variables: a caller firing one
/// (rule, occurrence) per delta tuple compiles once, a one-shot caller
/// passes `&mut None`.
pub fn eval_seeded<'a, L: JoinLit>(
    plan: &mut Option<JoinPlan>,
    lits: &[L],
    rel_of: &dyn Fn(usize) -> &'a Relation,
    seed: &Bindings,
) -> Vec<Bindings> {
    let plan = plan.get_or_insert_with(|| {
        let bound = seed.keys().copied().collect();
        JoinPlan::compile_sized(lits, &bound, None, &|i| rel_of(i).len())
    });
    eval_plan_stats(plan, lits, rel_of, seed, &mut JoinStats::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Literal};
    use crate::eval::join::eval_conjunct;
    use crate::storage::relation::INDEX_MIN;

    fn lit(pos: bool, name: &str, terms: Vec<Term>) -> Literal {
        let atom = Atom::new(name, terms);
        if pos {
            Literal::pos(atom)
        } else {
            Literal::neg(atom)
        }
    }

    fn vars(names: &[&str]) -> Vec<Term> {
        names.iter().map(|v| Term::var(v)).collect()
    }

    #[test]
    fn delta_occurrence_is_pinned_first() {
        // tc(X,Y) :- e(X,Z), tc(Z,Y)  with the tc occurrence as delta.
        let lits = vec![
            lit(true, "e", vars(&["X", "Z"])),
            lit(true, "tc", vars(&["Z", "Y"])),
        ];
        let plan = JoinPlan::compile(&lits, &BTreeSet::new(), Some(1));
        assert_eq!(plan.steps()[0], Step::DeltaScan { lit: 1 });
        // After the delta binds Z and Y, e is probed on its Z column.
        assert_eq!(
            plan.steps()[1],
            Step::Probe {
                lit: 0,
                cols: Box::from([1usize]),
            }
        );
    }

    #[test]
    fn constants_join_the_signature() {
        // works(X, hr): the constant column is bound from the start.
        let lits = vec![lit(true, "works", vec![Term::var("X"), Term::sym("hr")])];
        let plan = JoinPlan::compile(&lits, &BTreeSet::new(), None);
        assert_eq!(
            plan.steps(),
            &[Step::Probe {
                lit: 0,
                cols: Box::from([1usize]),
            }]
        );
    }

    #[test]
    fn repeated_variable_not_in_signature_until_bound() {
        // e(X, X): the first occurrence binds X, so no column is bound at
        // entry — the repeat is enforced by match_tuple, not the index.
        let lits = vec![lit(true, "e", vars(&["X", "X"]))];
        let plan = JoinPlan::compile(&lits, &BTreeSet::new(), None);
        assert_eq!(plan.steps(), &[Step::Scan { lit: 0 }]);
        // But once X is bound by an earlier literal, both columns are.
        let lits = vec![
            lit(true, "q", vars(&["X"])),
            lit(true, "e", vars(&["X", "X"])),
        ];
        let plan = JoinPlan::compile(&lits, &BTreeSet::new(), None);
        assert_eq!(
            plan.steps()[1],
            Step::Probe {
                lit: 1,
                cols: Box::from([0usize, 1]),
            }
        );
    }

    #[test]
    fn ground_negatives_hoist_early() {
        // p(X) :- q(X), not r(c), not s(X):  r(c) is ground at entry and
        // filters before anything scans; s(X) grounds after q binds X.
        let lits = vec![
            lit(true, "q", vars(&["X"])),
            lit(false, "r", vec![Term::sym("c")]),
            lit(false, "s", vars(&["X"])),
        ];
        let plan = JoinPlan::compile(&lits, &BTreeSet::new(), None);
        assert_eq!(
            plan.steps(),
            &[
                Step::NegGround { lit: 1 },
                Step::Scan { lit: 0 },
                Step::NegGround { lit: 2 },
            ]
        );
    }

    #[test]
    fn nonground_negative_trails_all_positives() {
        // v(X) :- q(X), not r(X, Y): Y never binds, so the negative keeps
        // its ¬∃ reading and runs last, probing its bound column.
        let lits = vec![
            lit(true, "q", vars(&["X"])),
            lit(false, "r", vars(&["X", "Y"])),
        ];
        let plan = JoinPlan::compile(&lits, &BTreeSet::new(), None);
        assert_eq!(
            plan.steps(),
            &[
                Step::Scan { lit: 0 },
                Step::NegProbe {
                    lit: 1,
                    cols: Box::from([0usize]),
                },
            ]
        );
    }

    #[test]
    fn seed_bound_variables_adorn_the_first_literal() {
        let lits = vec![lit(true, "e", vars(&["X", "Y"]))];
        let mut bound = BTreeSet::new();
        bound.insert(Var::new("X"));
        let plan = JoinPlan::compile(&lits, &bound, None);
        assert_eq!(
            plan.steps(),
            &[Step::Probe {
                lit: 0,
                cols: Box::from([0usize]),
            }]
        );
    }

    #[test]
    fn size_breaks_ties_only_in_lazily_compiled_plans() {
        // exec(A, H) :- exec(A, S), hacl(S, H), open(H), head-bound: both
        // binary literals have one bound column and one free variable.
        let lits = vec![
            lit(true, "exec", vars(&["A", "S"])),
            lit(true, "hacl", vars(&["S", "H"])),
            lit(true, "open", vars(&["H"])),
        ];
        let bound: BTreeSet<Var> = [Var::new("A"), Var::new("H")].into();
        let order = |plan: &JoinPlan| plan.steps().iter().map(Step::lit).collect::<Vec<_>>();
        // Statically, body position decides.
        assert_eq!(order(&JoinPlan::compile(&lits, &bound, None)), [2, 0, 1]);
        // Lazily, the three `hacl` rows go before the many `exec` rows;
        // `open(H)` is a membership test whatever its size.
        let exec: Relation = (0..40)
            .map(|i| Tuple::new(vec![Const::sym("a"), Const::Int(i)]))
            .collect();
        let hacl: Relation = (0..3)
            .map(|i| Tuple::new(vec![Const::Int(i), Const::Int(7)]))
            .collect();
        let open: Relation = (0..99).map(|i| Tuple::new(vec![Const::Int(i)])).collect();
        let rels = [exec, hacl, open];
        let rel_of = |i: usize| -> &Relation { &rels[i] };
        let seed: Bindings = [
            (Var::new("A"), Const::sym("a")),
            (Var::new("H"), Const::Int(7)),
        ]
        .into();
        let mut slot = None;
        assert_eq!(eval_seeded(&mut slot, &lits, &rel_of, &seed).len(), 3);
        assert_eq!(order(&slot.unwrap()), [2, 1, 0]);
    }

    /// Xorshift64: `dduf_core::rng` sits above this crate.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Seeded sweep of random conjunctions: the compiled plan and the
    /// reference loop return the same bindings whatever the delta
    /// occurrence, the seed, the literal shapes, the relation sizes and
    /// the size tie-break of the lazily compiled plans, and every probe is
    /// classified the same whatever the relations' index caches hold.
    #[test]
    fn planned_answers_match_greedy_answers() {
        const DOMAIN: usize = 6;
        const VARS: [&str; 4] = ["A", "B", "C", "D"];
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        // What the sweep must have exercised by the end.
        let mut steps_seen = [0usize; 6];
        let (mut nonempty, mut seeded, mut repeats, mut large, mut small) = (0, 0, 0, 0, 0);
        let mut reordered = 0;
        let mut total = JoinStats::default();

        for case in 0..3000 {
            // Four relations of arity 1..=3, empty, below or above the
            // index gate (an arity-1 relation cannot reach it).
            let rels: Vec<(usize, Relation)> = (0..4)
                .map(|_| {
                    let arity = 1 + rng.below(3);
                    let rows = match rng.below(4) {
                        0 => 0,
                        1 => 1 + rng.below(8),
                        _ => 10 + rng.below(50),
                    };
                    let rel: Relation = (0..rows)
                        .map(|_| {
                            (0..arity)
                                .map(|_| Const::Int(rng.below(DOMAIN) as i64))
                                .collect::<Tuple>()
                        })
                        .collect();
                    (arity, rel)
                })
                .collect();
            let n = 1 + rng.below(4);
            let backing: Vec<usize> = (0..n).map(|_| rng.below(rels.len())).collect();
            let lits: Vec<Literal> = backing
                .iter()
                .map(|&r| {
                    let terms: Vec<Term> = (0..rels[r].0)
                        .map(|_| match rng.below(4) {
                            0 => Term::Const(Const::Int(rng.below(DOMAIN) as i64)),
                            _ => Term::var(VARS[rng.below(VARS.len())]),
                        })
                        .collect();
                    lit(rng.below(10) >= 3, "r", terms)
                })
                .collect();
            let mut seed = Bindings::new();
            for v in VARS {
                if rng.below(4) == 0 {
                    seed.insert(Var::new(v), Const::Int(rng.below(DOMAIN) as i64));
                }
            }
            let positives: Vec<usize> = (0..n).filter(|&i| lits[i].positive).collect();
            let pinned = (!positives.is_empty() && rng.below(2) == 0)
                .then(|| positives[rng.below(positives.len())]);

            let rel_of = |i: usize| -> &Relation { &rels[backing[i]].1 };
            let bound: BTreeSet<Var> = seed.keys().copied().collect();
            let plan = JoinPlan::compile(&lits, &bound, pinned);
            let mut stats = JoinStats::default();
            let mut planned = eval_plan_stats(&plan, &lits, &rel_of, &seed, &mut stats);
            let mut reference = eval_conjunct(&lits, &rel_of, &seed);
            planned.sort();
            reference.sort();
            assert_eq!(
                planned, reference,
                "case {case}: {lits:?} seed {seed:?} pinned {pinned:?}"
            );
            assert_eq!(
                stats.indexed_probes + stats.scan_probes,
                stats.probes,
                "case {case}: unclassified probe"
            );
            // A lazily compiled plan orders equally bound literals by the
            // size of their relations: another order, the same answers.
            let mut slot = None;
            let mut sized = eval_seeded(&mut slot, &lits, &rel_of, &seed);
            sized.sort();
            assert_eq!(
                sized, reference,
                "case {case}: {lits:?} seed {seed:?} ordered by size"
            );
            reordered += usize::from(slot != Some(JoinPlan::compile(&lits, &bound, None)));
            // A rerun over the indexes the runs above built counts the same.
            let mut rerun = JoinStats::default();
            eval_plan_stats(&plan, &lits, &rel_of, &seed, &mut rerun);
            assert_eq!(
                rerun, stats,
                "case {case}: the index cache changed the counts"
            );

            total.merge(stats);
            nonempty += usize::from(!planned.is_empty());
            seeded += usize::from(!seed.is_empty());
            repeats += lits
                .iter()
                .filter(|l| {
                    let vars: Vec<&Term> = l.atom.terms.iter().filter(|t| !t.is_ground()).collect();
                    vars.iter().collect::<BTreeSet<_>>().len() < vars.len()
                })
                .count();
            for step in plan.steps() {
                let kind = match step {
                    Step::DeltaScan { .. } => 0,
                    Step::Probe { .. } => 1,
                    Step::Scan { .. } => 2,
                    Step::NegGround { .. } => 3,
                    Step::NegProbe { .. } => 4,
                    Step::NegScan { .. } => 5,
                };
                steps_seen[kind] += 1;
                if rel_of(step.lit()).len() >= INDEX_MIN {
                    large += 1;
                } else {
                    small += 1;
                }
            }
        }
        for (kind, &seen) in steps_seen.iter().enumerate() {
            assert!(seen > 100, "step kind {kind} planned only {seen} times");
        }
        for (what, seen) in [
            ("non-empty answers", nonempty),
            ("seed-bound cases", seeded),
            ("repeated variables in a literal", repeats),
            ("steps over indexable relations", large),
            ("steps over relations below the gate", small),
            ("plans the size tie-break reordered", reordered),
            ("indexed probes", total.indexed_probes as usize),
            ("scan probes", total.scan_probes as usize),
        ] {
            assert!(seen > 100, "only {seen} {what}");
        }
    }
}
