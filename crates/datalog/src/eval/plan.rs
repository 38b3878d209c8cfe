//! Compiled join plans: adorned literal orders computed once per (rule,
//! delta-occurrence) pair, in the style of Ullman's bound/free adornments
//! (the same machinery underlying the magic-sets transform in
//! [`crate::magic`]), and the one kernel that runs them.
//!
//! This is the one conjunction evaluator: every engine, every one-shot
//! query and the downward translator's old-state literals compile a
//! [`JoinPlan`] and run it — through [`JoinPlan::run`],
//! which hands each solution to a visitor that may stop the join, or
//! through the collecting wrappers [`eval_plan_stats`] and
//! [`eval_seeded`]. The greedy loop in [`crate::eval::join`] is only the
//! reference it is tested against. A plan fixes the literal order ahead
//! of time, for the fixpoint engines from static information only — the
//! literal list, the variables bound by the seed, and which occurrence
//! (if any) is the semi-naive delta:
//!
//! * the delta occurrence is pinned first (differential evaluation wants
//!   every derivation to pass through the delta);
//! * fully-ground negative literals are hoisted as early as safety allows
//!   (they are pure filters, so evaluating them sooner only prunes the
//!   search);
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
//! signature through [`Relation::probe`], the one index policy: a bound
//! prefix is answered from the sorted runs, any other column set from a
//! secondary index the relation builds on first use and maintains from
//! then on, and a relation below the indexing floor is scanned. A
//! positive step whose signature is every column, over a relation at the
//! floor, is the one tuple that range could hold: the kernel asks
//! [`Relation::contains`] instead, and counts it as the range.
//!
//! The plan also numbers the conjunction's variables once: the seed's
//! first, then each in the order a step binds it. The kernel runs
//! depth-first over one *slot row*: matching a tuple writes the slots its
//! literal binds, and the next candidate overwrites them, so nothing is
//! allocated per binding. A probe iterates the matches in place, borrowed
//! from the relation — an index entry is bound through the index's column
//! permutation, never copied back into column order.
//!
//! Because such a plan depends only on the rule and the static binding
//! pattern — never on relation contents — and a probe is indexed exactly
//! when its relation is large enough, every [`JoinStats`] counter of a
//! full enumeration is a function of the program and the data (DESIGN.md
//! §12).
//!
//! The plans [`eval_seeded`] compiles lazily, for callers whose counters
//! are discarded, take one dynamic input as well: among equally bound
//! positive literals the one over the smaller relation goes first. Body
//! position is a poor proxy there — a head-bound
//! `exec(A, H) :- exec(A, S), hacl(S, H), open(H)` would enumerate what
//! `A` reaches before asking which three hosts reach `H`.

use crate::ast::{Const, Term, Var};
use crate::eval::join::{Bindings, JoinLit, JoinStats};
use crate::storage::relation::{Relation, INDEX_MIN};
use crate::storage::tuple::Tuple;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// One step of a compiled plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Enumerate the pinned delta occurrence. Counts no probes, only one
    /// match per delta tuple that fits the seed.
    DeltaScan {
        /// Body position of the delta occurrence.
        lit: usize,
    },
    /// Probe a positive literal on `cols` (its bound-pattern signature).
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

/// How one column of a step's literal meets the slot row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arg {
    /// A constant: the column must equal it.
    Const(Const),
    /// A variable bound before the column is reached: the column must
    /// equal its slot.
    Bound(usize),
    /// A free variable's first occurrence: the column's value goes into
    /// its slot.
    Bind(usize),
}

/// A compiled join plan for one conjunction under one static binding
/// pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinPlan {
    steps: Vec<Step>,
    /// The variable each solution slot holds: the seed's, ascending, then
    /// each variable a positive step binds, in binding order.
    vars: Vec<Var>,
    /// How many of `vars` the seed binds.
    seeded: usize,
    /// Slots in a row: `vars`, then room for the existential variables
    /// of the trailing negative literal that has the most.
    slots: usize,
    /// Per step, how each column of its literal meets the row.
    args: Vec<Box<[Arg]>>,
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
    /// literal is a membership test and counts as 0). Only lazily compiled
    /// plans — [`eval_seeded`]'s and the maintenance engine's — pass real
    /// sizes. The first discard their join counters; the engine records
    /// those of its build, compiled at a point of its fixpoint loop that
    /// the program and the data fix, so they stay a function of both.
    pub fn compile_sized<L: JoinLit>(
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

        // Number the variables. A trailing negative literal's free
        // variables are its own (¬∃ each), so each compiles against the
        // solution slots alone and they share the room after them.
        let mut vars: Vec<Var> = seed_bound.iter().copied().collect();
        let seeded = vars.len();
        let mut slots = 0;
        let args = steps
            .iter()
            .map(|step| {
                let terms = lits[step.lit()].terms();
                if matches!(step, Step::NegProbe { .. } | Step::NegScan { .. }) {
                    let mut own = vars.clone();
                    let args = compile_args(terms, &mut own);
                    slots = slots.max(own.len());
                    args
                } else {
                    compile_args(terms, &mut vars)
                }
            })
            .collect();
        JoinPlan {
            steps,
            slots: slots.max(vars.len()),
            vars,
            seeded,
            args,
        }
    }

    /// The ordered steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The slot of variable `v` in a solution, if the seed or a positive
    /// step binds it.
    pub fn slot(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&w| w == v)
    }

    /// A fresh slot row for [`run`](Self::run).
    pub fn row(&self) -> Vec<Const> {
        vec![Const::Int(0); self.slots]
    }

    /// `terms` as the plan's seed: [`Pattern::bind`] matches a tuple
    /// against them and writes the seed slots. Every variable of `terms`
    /// must be a seed variable.
    pub fn seed(&self, terms: &[Term]) -> Pattern {
        self.pattern(terms, true)
    }

    /// `terms` over a solution: [`Pattern::ground`] reads their values
    /// off the row. Every variable of `terms` must be one the plan binds.
    pub fn project(&self, terms: &[Term]) -> Pattern {
        self.pattern(terms, false)
    }

    fn pattern(&self, terms: &[Term], seeding: bool) -> Pattern {
        let arg = |(j, t): (usize, &Term)| match *t {
            Term::Const(c) => Arg::Const(c),
            Term::Var(v) => {
                let s = self
                    .slot(v)
                    .expect("the plan binds every variable of the pattern");
                debug_assert!(!seeding || s < self.seeded, "{v:?} is not a seed variable");
                if seeding && !terms[..j].contains(t) {
                    Arg::Bind(s)
                } else {
                    Arg::Bound(s)
                }
            }
        };
        Pattern(terms.iter().enumerate().map(arg).collect())
    }

    /// Runs the plan depth-first from the seed `row` holds, handing every
    /// solution to `visit` until it breaks; returns whether it did.
    /// `row` must have [`row`](Self::row)'s length, its seed slots
    /// written; a solution is the row, variable `v` in slot
    /// [`slot(v)`](Self::slot).
    ///
    /// Counting: every step except [`Step::DeltaScan`] counts one probe
    /// per partial solution that reaches it, classified as indexed (a
    /// [`Relation::probe`] it reports as indexed, or a membership test)
    /// or scan (an iteration); every step counts one match per partial
    /// solution it extends or keeps. A probe is indexed exactly when the
    /// relation has at least `INDEX_MIN` tuples — never by what indexes
    /// it holds — so the split does not depend on what an earlier
    /// evaluation built. A visitor that runs to the end sees the
    /// solutions, and the counters come out, exactly as a breadth-first
    /// evaluation step by step would produce them.
    pub fn run<'a>(
        &self,
        rel_of: &dyn Fn(usize) -> &'a Relation,
        row: &mut [Const],
        stats: &mut JoinStats,
        visit: &mut dyn FnMut(&[Const]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        debug_assert_eq!(row.len(), self.slots);
        self.step(0, rel_of, row, stats, visit)
    }

    fn step<'a>(
        &self,
        k: usize,
        rel_of: &dyn Fn(usize) -> &'a Relation,
        row: &mut [Const],
        stats: &mut JoinStats,
        visit: &mut dyn FnMut(&[Const]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let Some(step) = self.steps.get(k) else {
            return visit(row);
        };
        let (args, rel) = (&*self.args[k], rel_of(step.lit()));
        let mut extend =
            |t: &Tuple, at: Option<&[usize]>, row: &mut [Const], stats: &mut JoinStats| {
                if bind(args, t, at, row) {
                    stats.matches += 1;
                    return self.step(k + 1, rel_of, row, stats, visit);
                }
                ControlFlow::Continue(())
            };
        match step {
            Step::DeltaScan { .. } => {
                for t in rel.iter() {
                    extend(t, None, row, stats)?;
                }
            }
            // Every column bound: the one tuple the range could yield is
            // a membership test, counted as the indexed range would be.
            Step::Probe { cols, .. } if cols.len() == args.len() && rel.len() >= INDEX_MIN => {
                count(stats, true);
                let tuple = args.iter().map(|&a| value(a, row));
                if with_key(tuple, |t| rel.contains(t)) {
                    stats.matches += 1;
                    return self.step(k + 1, rel_of, row, stats, visit);
                }
            }
            Step::Probe { cols, .. } => {
                let key = cols.iter().map(|&c| value(args[c], row));
                let probe = with_key(key, |key| rel.probe(cols, key));
                count(stats, probe.indexed);
                let at = probe.at;
                for t in probe {
                    extend(t, at, row, stats)?;
                }
            }
            Step::Scan { .. } => {
                count(stats, false);
                for t in rel.iter() {
                    extend(t, None, row, stats)?;
                }
            }
            Step::NegGround { .. } => {
                count(stats, true);
                let tuple = args.iter().map(|&a| value(a, row));
                if !with_key(tuple, |t| rel.contains(t)) {
                    stats.matches += 1;
                    return self.step(k + 1, rel_of, row, stats, visit);
                }
            }
            Step::NegProbe { cols, .. } => {
                let key = cols.iter().map(|&c| value(args[c], row));
                let mut probe = with_key(key, |key| rel.probe(cols, key));
                count(stats, probe.indexed);
                let at = probe.at;
                if !probe.any(|t| bind(args, t, at, row)) {
                    stats.matches += 1;
                    return self.step(k + 1, rel_of, row, stats, visit);
                }
            }
            Step::NegScan { .. } => {
                count(stats, false);
                if !rel.iter().any(|t| bind(args, t, None, row)) {
                    stats.matches += 1;
                    return self.step(k + 1, rel_of, row, stats, visit);
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// An atom's terms compiled against a [`JoinPlan`]'s slots: a seed to
/// match a tuple into a row ([`JoinPlan::seed`]), or a projection of a
/// solution ([`JoinPlan::project`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pattern(Box<[Arg]>);

impl Pattern {
    /// Matches `t` against the terms, writing the slots they bind;
    /// `false` on a mismatch (a constant or a repeated variable).
    pub fn bind(&self, t: &[Const], row: &mut [Const]) -> bool {
        bind(&self.0, t, None, row)
    }

    /// The terms' values under `row`, into `out` (cleared first).
    pub fn ground(&self, row: &[Const], out: &mut Vec<Const>) {
        out.clear();
        out.extend(self.0.iter().map(|&a| value(a, row)));
    }

    /// The terms' values under `row`, as a tuple.
    pub fn tuple(&self, row: &[Const]) -> Tuple {
        self.0.iter().map(|&a| value(a, row)).collect()
    }
}

/// Compiles `terms` against the slots `vars` numbers, numbering the
/// variables it meets first.
fn compile_args(terms: &[Term], vars: &mut Vec<Var>) -> Box<[Arg]> {
    let arg = |t: &Term| match *t {
        Term::Const(c) => Arg::Const(c),
        Term::Var(v) => match vars.iter().position(|&w| w == v) {
            Some(s) => Arg::Bound(s),
            None => {
                vars.push(v);
                Arg::Bind(vars.len() - 1)
            }
        },
    };
    terms.iter().map(arg).collect()
}

/// Matches `t` — column `c` at position `at[c]` when it is an index
/// entry — against `args`, writing the slots they bind.
fn bind(args: &[Arg], t: &[Const], at: Option<&[usize]>, row: &mut [Const]) -> bool {
    debug_assert_eq!(args.len(), t.len());
    args.iter().enumerate().all(|(c, &arg)| {
        let x = t[at.map_or(c, |at| at[c])];
        match arg {
            Arg::Const(k) => x == k,
            Arg::Bound(s) => row[s] == x,
            Arg::Bind(s) => {
                row[s] = x;
                true
            }
        }
    })
}

/// The value of a constant or bound argument under `row`.
fn value(arg: Arg, row: &[Const]) -> Const {
    match arg {
        Arg::Const(k) => k,
        Arg::Bound(s) => row[s],
        Arg::Bind(_) => unreachable!("plan invariant: probed columns are bound"),
    }
}

/// Calls `f` with `values` — a probe key, a ground tuple — from a stack
/// buffer when they fit in one.
fn with_key<R>(values: impl ExactSizeIterator<Item = Const>, f: impl FnOnce(&[Const]) -> R) -> R {
    const INLINE: usize = 8;
    if values.len() > INLINE {
        return f(&values.collect::<Vec<_>>());
    }
    let mut buf = [Const::Int(0); INLINE];
    let n = values.len();
    for (slot, x) in buf.iter_mut().zip(values) {
        *slot = x;
    }
    f(&buf[..n])
}

/// Counts one probe, indexed or scanned.
fn count(stats: &mut JoinStats, indexed: bool) {
    stats.probes += 1;
    stats.indexed_probes += u64::from(indexed);
    stats.scan_probes += u64::from(!indexed);
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

/// Runs `plan` from `seed` and collects every extension of `seed` that
/// satisfies the conjunction — the same answer set as the reference loop
/// in [`crate::eval::join`] — counting into `stats` as
/// [`JoinPlan::run`] does. The seed must bind the variables the plan was
/// compiled for.
pub fn eval_plan_stats<'a>(
    plan: &JoinPlan,
    rel_of: &dyn Fn(usize) -> &'a Relation,
    seed: &Bindings,
    stats: &mut JoinStats,
) -> Vec<Bindings> {
    let mut row = plan.row();
    let seeded = &plan.vars[..plan.seeded];
    for (s, v) in seeded.iter().enumerate() {
        row[s] = seed[v];
    }
    let mut out = Vec::new();
    let _ = plan.run(rel_of, &mut row, stats, &mut |row| {
        let mut b = seed.clone();
        let bound = plan.vars.iter().zip(row).skip(plan.seeded);
        b.extend(bound.map(|(&v, &c)| (v, c)));
        out.push(b);
        ControlFlow::Continue(())
    });
    out
}

/// Runs `plan` from an empty seed and collects the head `head` of every
/// solution — a rule's derivations, one per instance — counting into
/// `stats` as [`JoinPlan::run`] does.
pub fn eval_heads<'a>(
    plan: &JoinPlan,
    head: &[Term],
    rel_of: &dyn Fn(usize) -> &'a Relation,
    stats: &mut JoinStats,
) -> Vec<Tuple> {
    let head = plan.project(head);
    let mut out = Vec::new();
    let _ = plan.run(rel_of, &mut plan.row(), stats, &mut |row| {
        out.push(head.tuple(row));
        ControlFlow::Continue(())
    });
    out
}

/// Evaluates `lits` from `seed` for a caller outside the fixpoint engines
/// — a query, an explanation — whose join counters are discarded.
///
/// `plan` is the caller's slot for this conjunction. It is compiled on
/// first use for the variable set `seed` binds — and for the sizes the
/// relations have then, which break ties among equally bound literals —
/// and reused for as long as the caller keeps the slot, so every seed
/// passed with one slot must bind the same variables; a one-shot caller
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
    eval_plan_stats(plan, rel_of, seed, &mut JoinStats::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Literal};
    use crate::eval::join::eval_conjunct;

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

    fn ints(rows: &[&[i64]]) -> Relation {
        rows.iter()
            .map(|r| r.iter().map(|&i| Const::Int(i)).collect::<Tuple>())
            .collect()
    }

    /// The sorted solutions of `lits` over `rels`, projected on `var`.
    fn solve(lits: &[Literal], rels: &[Relation], var: &str) -> (JoinPlan, Vec<Const>) {
        let plan = JoinPlan::compile(lits, &BTreeSet::new(), None);
        let rel_of = |i: usize| -> &Relation { &rels[i] };
        let mut out: Vec<Const> =
            eval_plan_stats(&plan, &rel_of, &Bindings::new(), &mut JoinStats::default())
                .iter()
                .map(|b| b[&Var::new(var)])
                .collect();
        out.sort();
        (plan, out)
    }

    #[test]
    fn trailing_negatives_keep_their_not_exists_reading() {
        // q(X), not r(X, Y), not s(Y, Y): each negative is ¬∃ over its own
        // free variables — `Y` of one is not `Y` of the other — whether it
        // probes a bound column or scans.
        let lits = vec![
            lit(true, "q", vars(&["X"])),
            lit(false, "r", vars(&["X", "Y"])),
            lit(false, "s", vars(&["Y", "Y"])),
        ];
        let q = ints(&[&[1], &[2], &[3]]);
        let r = ints(&[&[1, 7], &[3, 3]]);
        let s_none = ints(&[&[4, 5]]);
        let s_some = ints(&[&[4, 5], &[6, 6]]);
        let (plan, xs) = solve(&lits, &[q.clone(), r.clone(), s_none], "X");
        assert!(matches!(plan.steps()[1], Step::NegProbe { lit: 1, .. }));
        assert_eq!(plan.steps()[2], Step::NegScan { lit: 2 });
        assert_eq!(xs, [Const::Int(2)], "r(1, _) and r(3, _) exist");
        // One s(Y, Y) exists: ¬∃Y s(Y, Y) fails for every X.
        assert_eq!(solve(&lits, &[q, r, s_some], "X").1, []);
    }

    #[test]
    fn a_visitor_that_breaks_stops_the_join() {
        // e(X, Y), e(Y, Z) over a chain: three solutions, one visited.
        let lits = vec![
            lit(true, "e", vars(&["X", "Y"])),
            lit(true, "e", vars(&["Y", "Z"])),
        ];
        let e = ints(&[&[1, 2], &[2, 3], &[3, 4], &[4, 5]]);
        let rel_of = |_: usize| -> &Relation { &e };
        let plan = JoinPlan::compile(&lits, &BTreeSet::new(), None);
        let mut all = JoinStats::default();
        assert_eq!(
            eval_plan_stats(&plan, &rel_of, &Bindings::new(), &mut all).len(),
            3
        );
        let (mut seen, mut stats) = (Vec::new(), JoinStats::default());
        let z = plan.project(&vars(&["Z"]));
        let flow = plan.run(&rel_of, &mut plan.row(), &mut stats, &mut |row| {
            seen.push(z.tuple(row));
            ControlFlow::Break(())
        });
        assert!(flow.is_break());
        assert_eq!(
            seen,
            [Tuple::new(vec![Const::Int(3)])],
            "the first solution only"
        );
        assert!(
            stats.probes < all.probes,
            "the join stopped: {stats:?} vs {all:?}"
        );
    }

    /// `q(X), e(X, c)` and `q(X), e(X, X)` with `q` the delta: after it
    /// binds `X`, every column of `e` is bound — by a constant, and by a
    /// variable repeated. Over a relation at the indexing floor that step
    /// is one membership test, below it a scan; either way the solutions
    /// and the counters are those of the range `Relation::probe` yields,
    /// filtered by the match.
    #[test]
    fn a_fully_bound_literal_counts_as_its_range() {
        let c = Const::Int(7);
        let cases = [vec![Term::var("X"), Term::Const(c)], vars(&["X", "X"])];
        for terms in cases {
            let lits = vec![lit(true, "q", vars(&["X"])), lit(true, "e", terms.clone())];
            let plan = JoinPlan::compile(&lits, &BTreeSet::new(), Some(0));
            let full = Step::Probe {
                lit: 1,
                cols: Box::from([0usize, 1]),
            };
            assert_eq!(plan.steps()[1], full, "{terms:?}");
            for size in [INDEX_MIN - 4, INDEX_MIN + 20] {
                let q: Relation = (0..12).map(|i| Tuple::new(vec![Const::Int(i)])).collect();
                // Every third x has its tuple, among pairs that match neither.
                let e: Relation = (0..size as i64)
                    .map(|i| {
                        let x = Const::Int(i % 12);
                        let hit = i % 3 == 0;
                        let y = match (hit, terms[1]) {
                            (true, Term::Const(c)) => c,
                            (true, _) => x,
                            (false, _) => Const::Int(100 + i),
                        };
                        Tuple::new(vec![x, y])
                    })
                    .collect();
                let rels = [q.clone(), e.clone()];
                let rel_of = |i: usize| -> &Relation { &rels[i] };
                let mut stats = JoinStats::default();
                let mut got: Vec<Const> =
                    eval_plan_stats(&plan, &rel_of, &Bindings::new(), &mut stats)
                        .iter()
                        .map(|b| b[&Var::new("X")])
                        .collect();
                got.sort();
                // The range path: probe both columns, match the key.
                let mut range = JoinStats {
                    matches: q.len() as u64,
                    ..JoinStats::default()
                };
                let mut expected = Vec::new();
                for x in q.iter().map(|t| t[0]) {
                    let y = match terms[1] {
                        Term::Const(c) => c,
                        _ => x,
                    };
                    let probe = e.probe(&[0, 1], &[x, y]);
                    count(&mut range, probe.indexed);
                    let hits = probe.filter(|t| t[..] == [x, y]).count();
                    range.matches += hits as u64;
                    expected.extend(std::iter::repeat_n(x, hits));
                }
                assert_eq!(got, expected, "{terms:?} over {size} tuples");
                assert!(!got.is_empty() && got.len() < q.len());
                assert_eq!(stats, range, "{terms:?} over {size} tuples");
                let indexed = size >= INDEX_MIN;
                assert_eq!(stats.indexed_probes, if indexed { 12 } else { 0 });
            }
        }
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
    /// classified the same whatever indexes the relations hold.
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
            let mut planned = eval_plan_stats(&plan, &rel_of, &seed, &mut stats);
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
            // A visitor that breaks at its first solution sees exactly one.
            let mut row = plan.row();
            for (&v, &c) in &seed {
                row[plan.slot(v).expect("a seed slot")] = c;
            }
            let mut seen = 0;
            let broke = plan.run(&rel_of, &mut row, &mut JoinStats::default(), &mut |_| {
                seen += 1;
                ControlFlow::Break(())
            });
            assert_eq!(seen, usize::from(!planned.is_empty()), "case {case}");
            assert_eq!(broke.is_break(), !planned.is_empty(), "case {case}");
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
            eval_plan_stats(&plan, &rel_of, &seed, &mut rerun);
            assert_eq!(
                rerun, stats,
                "case {case}: the indexes built changed the counts"
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
        // What the breadth-first evaluator this kernel replaced counted
        // over the same cases: a full enumeration counts the same.
        let parent = JoinStats {
            probes: 12063,
            matches: 19176,
            indexed_probes: 6413,
            scan_probes: 5650,
        };
        assert_eq!(total, parent, "the join counters moved");
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
