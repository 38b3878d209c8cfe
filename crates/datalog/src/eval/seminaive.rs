//! Semi-naive (differential) fixpoint evaluation of one stratification
//! component.
//!
//! After the first round, each rule is only re-evaluated with one recursive
//! positive literal restricted to the previous round's *delta* (the tuples
//! derived in that round), so already-explored derivations are not repeated.
//! Negative literals always refer to lower strata (guaranteed by
//! stratification) and are therefore static during the fixpoint.
//!
//! Evaluation is parallelized across a [`Pool`]: round 0 runs one job per
//! rule, and each differential round runs one job per (rule, recursive
//! occurrence, delta chunk) — large deltas are split into contiguous
//! chunks so a single hot rule still spreads across workers. Because every
//! job produces a set of head tuples and the per-round reduction unions
//! them into `BTreeSet`-backed relations **in job order**, the computed
//! fixpoint is bit-identical for any thread count (DESIGN.md §10).

use crate::analysis::cost::CostModel;
use crate::ast::{Literal, Pred, Rule};
use crate::eval::join::{ground_terms, Bindings, JoinStats};
use crate::eval::plan::{eval_plan_stats, IndexTracker, JoinPlan};
use crate::eval::pool::Pool;
use crate::eval::{body_relation, ComponentTrace, Interpretation};
use crate::storage::database::Database;
use crate::storage::relation::Relation;
use crate::storage::tuple::Tuple;
use crate::stratify::Component;
use std::collections::{BTreeMap, BTreeSet};

/// Deltas smaller than this are never split: chunking clones tuples, so
/// it must buy enough per-chunk work to amortize.
const CHUNK_MIN: usize = 64;

/// A round's delta for one predicate, as seen by the job partitioner:
/// either the whole relation (small, or single worker) or materialized
/// contiguous chunks of it.
enum DeltaView<'a> {
    Whole(&'a Relation),
    Parts(Vec<Relation>),
}

impl DeltaView<'_> {
    fn build(delta: &Relation, workers: usize) -> DeltaView<'_> {
        if workers <= 1 || delta.len() < 2 * CHUNK_MIN {
            return DeltaView::Whole(delta);
        }
        let tuples: Vec<Tuple> = delta.iter().cloned().collect();
        let parts = workers.min(tuples.len() / CHUNK_MIN).max(1);
        let per = tuples.len().div_ceil(parts);
        DeltaView::Parts(
            tuples
                .chunks(per)
                .map(|c| Relation::from_tuples(c.iter().cloned()))
                .collect(),
        )
    }

    fn count(&self) -> usize {
        match self {
            DeltaView::Whole(_) => 1,
            DeltaView::Parts(ps) => ps.len(),
        }
    }

    fn get(&self, i: usize) -> &Relation {
        match self {
            DeltaView::Whole(r) => r,
            DeltaView::Parts(ps) => &ps[i],
        }
    }
}

/// Evaluates `component` to fixpoint semi-naively with the process-default
/// pool (sequential unless `--threads`/`DDUF_THREADS` raised it).
pub fn eval_component(
    db: &Database,
    interp: &Interpretation,
    component: &Component,
) -> Vec<(Pred, Relation)> {
    eval_component_pooled(db, interp, component, &Pool::current())
}

/// Evaluates `component` to fixpoint semi-naively across `pool`.
pub fn eval_component_pooled(
    db: &Database,
    interp: &Interpretation,
    component: &Component,
    pool: &Pool,
) -> Vec<(Pred, Relation)> {
    eval_component_traced(db, interp, component, pool).0
}

/// [`eval_component_pooled`], also returning the component's evaluation
/// trace. The trace carries only semantic counters (rounds, derivation
/// and delta cardinalities, join work, plan/index accounting), all of
/// which are independent of the worker count: per-round derivation
/// counts are binding counts, which partition exactly across delta
/// chunks, and probe counts are partition-exact in every round because
/// the compiled plan's literal order is static and the delta scan counts
/// per tuple (DESIGN.md §12).
pub fn eval_component_traced(
    db: &Database,
    interp: &Interpretation,
    component: &Component,
    pool: &Pool,
) -> (Vec<(Pred, Relation)>, ComponentTrace) {
    let program = db.program();
    let members: Vec<Pred> = component.preds.clone();
    let mut current: BTreeMap<Pred, Relation> =
        members.iter().map(|&p| (p, Relation::new())).collect();

    let rules: Vec<&Rule> = members.iter().flat_map(|&p| program.rules_for(p)).collect();
    let mut trace = ComponentTrace::default();

    // Dead rules: a positive body literal over a *non-member* empty
    // relation can never match, and non-member relations are fixed for
    // the duration of this component's evaluation — so the rule is
    // unreachable and no plan is compiled for it. Skipping cannot change
    // results (the rule contributes nothing either way), and the decision
    // reads only pre-fan-out state, so it is identical at any thread
    // count.
    let dead: Vec<bool> = rules
        .iter()
        .map(|rule| {
            rule.body.iter().any(|l| {
                l.positive
                    && !members.contains(&l.atom.pred)
                    && body_relation(db, interp, &current, program, l.atom.pred).is_empty()
            })
        })
        .collect();

    // Compile every plan this component can need, once, up front: one per
    // live rule for full (round-0) evaluation, one per (rule, recursive
    // occurrence) for differential rounds with that occurrence pinned as
    // the delta. Plan choice depends only on the rule and the static
    // binding pattern, never on relation contents. A rule with a positive
    // member occurrence gets no full plan either: members start empty, so
    // its round-0 evaluation is vacuous and every later derivation goes
    // through a delta plan. Each list is also its rounds' job list: a rule
    // or occurrence without a plan gets no job at all.
    let full: Vec<(usize, JoinPlan)> = rules
        .iter()
        .enumerate()
        .filter(|&(ri, r)| {
            !dead[ri] && !r.body.iter().any(|l| is_recursive_occurrence(l, &members))
        })
        .map(|(ri, r)| (ri, JoinPlan::compile(&r.body, &BTreeSet::new(), None)))
        .collect();
    let mut delta_plans: BTreeMap<(usize, usize), JoinPlan> = BTreeMap::new();
    if component.recursive {
        for (ri, rule) in rules.iter().enumerate() {
            if dead[ri] {
                continue;
            }
            for (occ, lit) in rule.body.iter().enumerate() {
                if is_recursive_occurrence(lit, &members) {
                    delta_plans.insert(
                        (ri, occ),
                        JoinPlan::compile(&rule.body, &BTreeSet::new(), Some(occ)),
                    );
                }
            }
        }
    }
    trace.plans = (full.len() + delta_plans.len()) as u64;
    // The static cost model: per-predicate cardinality bounds from the
    // program shape plus exact EDB counts, consulted to gate every eager
    // index build below.
    let cost = CostModel::from_database(db);
    let mut indexes: IndexTracker<Pred> = IndexTracker::new();

    // Round 0: full evaluation (recursive predicates are empty, so this
    // costs the same as the non-recursive case). One job per rule; job
    // results are merged in rule order. Indexes the plans declare are
    // built here, before fan-out, so workers only ever take the shared
    // read lock.
    let mut delta: BTreeMap<Pred, Relation> =
        members.iter().map(|&p| (p, Relation::new())).collect();
    for (ri, pl) in &full {
        let rule = rules[*ri];
        // Driving cardinality: the plan's first step enumerates its
        // relation once per seed, so its length bounds how many
        // probes reach the later steps.
        let driving = pl
            .steps()
            .first()
            .map(|s| {
                body_relation(db, interp, &current, program, rule.body[s.lit()].atom.pred).len()
            })
            .unwrap_or(0);
        for (lit, cols) in pl.sigs() {
            let pred = rule.body[*lit].atom.pred;
            let rel = body_relation(db, interp, &current, program, pred);
            if cost.index_worthwhile(pred, rel.len(), driving) {
                indexes.request(pred, rel, cols);
            }
        }
    }
    let round0: Vec<(Vec<Tuple>, JoinStats)> = pool.map(full.len(), |k| {
        let (ri, pl) = &full[k];
        let rule = rules[*ri];
        let rel_of = |i: usize| -> &Relation {
            body_relation(db, interp, &current, program, rule.body[i].atom.pred)
        };
        let mut stats = JoinStats::default();
        let bindings = eval_plan_stats(
            pl,
            &rule.body,
            &rel_of,
            &|i, cols| indexes.contains(&rule.body[i].atom.pred, cols),
            &Bindings::new(),
            &mut stats,
        );
        let tuples = bindings
            .iter()
            .map(|b| ground_terms(&rule.head.terms, b).expect("ground head"))
            .collect();
        (tuples, stats)
    });
    let mut round_tuples = 0u64;
    for (k, (tuples, stats)) in round0.into_iter().enumerate() {
        round_tuples += tuples.len() as u64;
        trace.stats.merge(stats);
        let rel = delta.get_mut(&rules[full[k].0].head.pred).expect("member");
        rel.extend(tuples);
    }
    merge_delta(&mut current, &mut delta, &mut indexes);
    trace.push_round(round_tuples, fresh_count(&delta));

    if !component.recursive {
        trace.indexes = indexes.count();
        return (current.into_iter().collect(), trace);
    }

    // Differential rounds: one job per (rule, recursive occurrence, delta
    // chunk). All jobs read the same `current`/`delta` from the previous
    // round, so they are independent; the reduction below is a union of
    // sets and therefore independent of the partition and of scheduling.
    while delta.values().any(|r| !r.is_empty()) {
        // Pre-build this round's composite indexes before fan-out.
        // Pinned (delta) occurrences never appear in a plan's
        // signatures, so chunk relations are never indexed. The gate
        // reads the *whole* delta length, before chunking, so it is
        // identical for every chunk and at any thread count.
        for (&(ri, occ), pl) in &delta_plans {
            let rule = rules[ri];
            let dlen = delta[&rule.body[occ].atom.pred].len();
            if dlen == 0 {
                continue; // no jobs for this occurrence this round
            }
            for (lit, cols) in pl.sigs() {
                let pred = rule.body[*lit].atom.pred;
                let rel = body_relation(db, interp, &current, program, pred);
                if cost.index_worthwhile(pred, rel.len(), dlen) {
                    indexes.request(pred, rel, cols);
                }
            }
        }
        let views: BTreeMap<Pred, DeltaView<'_>> = delta
            .iter()
            .map(|(&p, d)| (p, DeltaView::build(d, pool.threads())))
            .collect();
        let mut jobs: Vec<(usize, usize, usize)> = Vec::new();
        for &(ri, occ) in delta_plans.keys() {
            for ci in 0..views[&rules[ri].body[occ].atom.pred].count() {
                jobs.push((ri, occ, ci));
            }
        }
        let results: Vec<(Vec<Tuple>, JoinStats)> = pool.map(jobs.len(), |k| {
            let (ri, occ, ci) = jobs[k];
            let rule = rules[ri];
            let rel_of = |i: usize| -> &Relation {
                if i == occ {
                    views[&rule.body[occ].atom.pred].get(ci)
                } else {
                    body_relation(db, interp, &current, program, rule.body[i].atom.pred)
                }
            };
            let head_rel = &current[&rule.head.pred];
            let mut stats = JoinStats::default();
            let bindings = eval_plan_stats(
                &delta_plans[&(ri, occ)],
                &rule.body,
                &rel_of,
                &|i, cols| indexes.contains(&rule.body[i].atom.pred, cols),
                &Bindings::new(),
                &mut stats,
            );
            let tuples = bindings
                .iter()
                .filter_map(|b| {
                    let t = ground_terms(&rule.head.terms, b).expect("ground head");
                    (!head_rel.contains(&t)).then_some(t)
                })
                .collect();
            (tuples, stats)
        });
        drop(views);
        let mut next: BTreeMap<Pred, Relation> =
            members.iter().map(|&p| (p, Relation::new())).collect();
        let mut round_tuples = 0u64;
        for (k, (tuples, stats)) in results.into_iter().enumerate() {
            round_tuples += tuples.len() as u64;
            trace.stats.merge(stats);
            let rel = next.get_mut(&rules[jobs[k].0].head.pred).expect("member");
            rel.extend(tuples);
        }
        delta = next;
        merge_delta(&mut current, &mut delta, &mut indexes);
        trace.push_round(round_tuples, fresh_count(&delta));
    }

    trace.indexes = indexes.count();
    (current.into_iter().collect(), trace)
}

/// Post-dedup cardinality of a round's delta.
fn fresh_count(delta: &BTreeMap<Pred, Relation>) -> u64 {
    delta.values().map(|r| r.len() as u64).sum()
}

/// True iff `lit` is a positive occurrence of a component member (negative
/// member occurrences are impossible in a stratifiable program).
fn is_recursive_occurrence(lit: &Literal, members: &[Pred]) -> bool {
    lit.positive && members.contains(&lit.atom.pred)
}

/// Adds `delta` into `current` (one bulk merge, one index invalidation
/// per mutated relation), shrinking `delta` to the genuinely new tuples
/// and dropping the tracker's record of indexes the mutation invalidated.
fn merge_delta(
    current: &mut BTreeMap<Pred, Relation>,
    delta: &mut BTreeMap<Pred, Relation>,
    indexes: &mut IndexTracker<Pred>,
) {
    for (pred, d) in delta.iter_mut() {
        let cur = current.get_mut(pred).expect("member");
        let fresh: Vec<Tuple> = cur.merge(d);
        if !fresh.is_empty() {
            indexes.invalidate(pred);
        }
        *d = fresh.into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Const, Term};
    use crate::eval::{materialize_with, materialize_with_threads, Strategy};
    use crate::schema::Program;

    fn atom(name: &str, vars: &[&str]) -> Atom {
        Atom::new(name, vars.iter().map(|v| Term::var(v)).collect())
    }

    fn chain_db(n: usize) -> Database {
        let mut b = Program::builder();
        b.rule(Rule::new(
            atom("tc", &["X", "Y"]),
            vec![Literal::pos(atom("e", &["X", "Y"]))],
        ));
        b.rule(Rule::new(
            atom("tc", &["X", "Y"]),
            vec![
                Literal::pos(atom("e", &["X", "Z"])),
                Literal::pos(atom("tc", &["Z", "Y"])),
            ],
        ));
        let mut db = Database::new(b.build().unwrap());
        for i in 0..n {
            db.assert_fact(&Atom::ground(
                "e",
                vec![Const::Int(i as i64), Const::Int(i as i64 + 1)],
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn matches_naive_on_chain() {
        let db = chain_db(12);
        let a = materialize_with(&db, Strategy::Naive).unwrap();
        let b = materialize_with(&db, Strategy::SemiNaive).unwrap();
        assert_eq!(a, b);
        // n*(n+1)/2 pairs for a chain of n edges
        assert_eq!(a.relation(Pred::new("tc", 2)).len(), 12 * 13 / 2);
    }

    #[test]
    fn parallel_matches_sequential_on_chunked_deltas() {
        // Large enough that differential deltas exceed CHUNK_MIN and get
        // partitioned across workers.
        let db = chain_db(200);
        let seq = materialize_with_threads(&db, Strategy::SemiNaive, 1).unwrap();
        for threads in [2, 4, 8] {
            let par = materialize_with_threads(&db, Strategy::SemiNaive, threads).unwrap();
            assert_eq!(seq, par, "threads = {threads}");
        }
        assert_eq!(seq.relation(Pred::new("tc", 2)).len(), 200 * 201 / 2);
    }

    #[test]
    fn matches_naive_on_mutual_recursion() {
        // even(X) :- zero(X).  even(Y) :- succ2(X, Y), even(X).
        let mut b = Program::builder();
        b.rule(Rule::new(
            atom("even", &["X"]),
            vec![Literal::pos(atom("zero", &["X"]))],
        ));
        b.rule(Rule::new(
            atom("even", &["Y"]),
            vec![
                Literal::pos(atom("succ2", &["X", "Y"])),
                Literal::pos(atom("even", &["X"])),
            ],
        ));
        let mut db = Database::new(b.build().unwrap());
        db.assert_fact(&Atom::ground("zero", vec![Const::Int(0)]))
            .unwrap();
        for i in (0..10).step_by(2) {
            db.assert_fact(&Atom::ground(
                "succ2",
                vec![Const::Int(i), Const::Int(i + 2)],
            ))
            .unwrap();
        }
        let a = materialize_with(&db, Strategy::Naive).unwrap();
        let b2 = materialize_with(&db, Strategy::SemiNaive).unwrap();
        assert_eq!(a, b2);
        assert_eq!(a.relation(Pred::new("even", 1)).len(), 6);
    }

    #[test]
    fn negation_across_strata_matches_naive() {
        // reach(X) :- src(X).  reach(Y) :- reach(X), e(X, Y).
        // unreachable(X) :- node(X), not reach(X).
        let mut b = Program::builder();
        b.rule(Rule::new(
            atom("reach", &["X"]),
            vec![Literal::pos(atom("src", &["X"]))],
        ));
        b.rule(Rule::new(
            atom("reach", &["Y"]),
            vec![
                Literal::pos(atom("reach", &["X"])),
                Literal::pos(atom("e", &["X", "Y"])),
            ],
        ));
        b.rule(Rule::new(
            atom("unreachable", &["X"]),
            vec![
                Literal::pos(atom("node", &["X"])),
                Literal::neg(atom("reach", &["X"])),
            ],
        ));
        let mut db = Database::new(b.build().unwrap());
        for n in ["a", "b", "c", "d"] {
            db.assert_fact(&Atom::ground("node", vec![Const::sym(n)]))
                .unwrap();
        }
        db.assert_fact(&Atom::ground("src", vec![Const::sym("a")]))
            .unwrap();
        db.assert_fact(&Atom::ground("e", vec![Const::sym("a"), Const::sym("b")]))
            .unwrap();
        db.assert_fact(&Atom::ground("e", vec![Const::sym("b"), Const::sym("c")]))
            .unwrap();
        let a = materialize_with(&db, Strategy::Naive).unwrap();
        let s = materialize_with(&db, Strategy::SemiNaive).unwrap();
        assert_eq!(a, s);
        assert_eq!(s.relation(Pred::new("unreachable", 1)).len(), 1);
        assert!(s.holds(
            Pred::new("unreachable", 1),
            &crate::storage::tuple::syms(&["d"])
        ));
    }
}
