//! Adornment (binding-pattern) inference: which bound-column signatures
//! can any compiled plan ever probe, per predicate?
//!
//! The engines compile [`crate::eval::plan::JoinPlan`]s from four seed
//! families, and plan compilation is deterministic in (literal list, seed
//! bindings, pinned occurrence). Inference therefore *replays* the
//! compiler over every seed family a program admits:
//!
//! 1. **full** — each rule body with nothing bound (round-0 semi-naive
//!    evaluation and ad-hoc queries);
//! 2. **delta** — each recursive positive occurrence pinned first
//!    (differential rounds);
//! 3. **firing** — each body occurrence flipped to the polarity of the
//!    change that reaches it and pinned: the maintenance engine's
//!    counting and DRed firings, which bind one occurrence to a changed
//!    tuple and join the rest of the body;
//! 4. **head-bound** — each rule body with the head variables seed-bound:
//!    DRed's rederive check and keep-check (`Pⁿ` still derivable?).
//!
//! The union of probe signatures over those plans is the set of column
//! sets evaluation can probe (those that are not a prefix are the hash
//! indexes it can build), and the bound/free strings (`"bf"`,
//! `"bb"`, …) are the classic magic-sets adornments of the same
//! information. The result is advisory — consumers use it to *report* and
//! to *skip* work (plans whose seeds are provably empty), never to change
//! answers — so the upward approximation (transition-rule DNFs conjoin
//! literals across rules; the replay here stays per-rule) is safe.

use crate::ast::{Literal, Pred};
use crate::eval::plan::{JoinPlan, Step};
use crate::schema::Program;
use crate::stratify::Component;
use std::collections::{BTreeMap, BTreeSet};

/// The inferred binding patterns of a program.
#[derive(Clone, Debug, Default)]
pub struct AdornmentInfo {
    /// Per predicate: every signature (strictly ascending bound-column
    /// set) some plan may probe it with.
    pub sigs: BTreeMap<Pred, BTreeSet<Box<[usize]>>>,
    /// Per predicate: every adornment string (`'b'` = bound, `'f'` = free)
    /// under which it can be visited, including all-free scans and
    /// fully-bound membership tests.
    pub patterns: BTreeMap<Pred, BTreeSet<String>>,
    /// Number of (seed family, rule, occurrence) plans replayed.
    pub plans_considered: u64,
}

impl AdornmentInfo {
    /// Infers adornments for `program`, whose
    /// [components](crate::stratify::components) are `components`.
    pub fn infer(program: &Program, components: &[Component]) -> AdornmentInfo {
        let mut info = AdornmentInfo::default();
        let no_bound = BTreeSet::new();
        for rule in program.rules() {
            // 1. Full evaluation: nothing bound, no pin.
            info.absorb(&rule.body, &JoinPlan::compile(&rule.body, &no_bound, None));
            // 2. Differential rounds: each occurrence of a member of the
            // head's recursive component pinned.
            let members: &[Pred] = components
                .iter()
                .find(|c| c.recursive && c.preds.contains(&rule.head.pred))
                .map_or(&[], |c| &c.preds);
            for (occ, lit) in rule.body.iter().enumerate() {
                if lit.positive && members.contains(&lit.atom.pred) {
                    info.absorb(
                        &rule.body,
                        &JoinPlan::compile(&rule.body, &no_bound, Some(occ)),
                    );
                }
            }
            // 3. Firings: every body occurrence, flipped positive (a
            // change to a negative literal's atom fires it too) and pinned
            // like a delta.
            for occ in 0..rule.body.len() {
                let mut lits: Vec<Literal> = rule.body.clone();
                if !lits[occ].positive {
                    lits[occ] = lits[occ].negated();
                }
                info.absorb(&lits, &JoinPlan::compile(&lits, &no_bound, Some(occ)));
            }
            // 4. Head-bound checks: head variables seed-bound.
            let head_bound = rule.head.vars().into_iter().collect();
            info.absorb(
                &rule.body,
                &JoinPlan::compile(&rule.body, &head_bound, None),
            );
            // The `¬P°(head)` conjunct of insertion rules (6) is a fully
            // bound membership test on the head predicate.
            info.pattern(rule.head.pred, &all_bound(rule.head.pred.arity));
        }
        info
    }

    /// Records one compiled plan's probe signatures and visit patterns.
    fn absorb(&mut self, lits: &[Literal], plan: &JoinPlan) {
        self.plans_considered += 1;
        for step in plan.steps() {
            let pred = lits[step.lit()].atom.pred;
            match step {
                Step::Probe { cols, .. } | Step::NegProbe { cols, .. } => {
                    self.sigs.entry(pred).or_default().insert(cols.clone());
                    self.pattern(pred, &cols_pattern(pred.arity, cols));
                }
                Step::DeltaScan { .. } | Step::Scan { .. } | Step::NegScan { .. } => {
                    self.pattern(pred, &all_free(pred.arity));
                }
                Step::NegGround { .. } => {
                    self.pattern(pred, &all_bound(pred.arity));
                }
            }
        }
    }

    fn pattern(&mut self, pred: Pred, pat: &str) {
        self.patterns.entry(pred).or_default().insert(pat.into());
    }
}

/// `'b'`/`'f'` string with `'b'` at the signature columns.
fn cols_pattern(arity: usize, cols: &[usize]) -> String {
    (0..arity)
        .map(|i| if cols.contains(&i) { 'b' } else { 'f' })
        .collect()
}

fn all_free(arity: usize) -> String {
    "f".repeat(arity)
}

fn all_bound(arity: usize) -> String {
    "b".repeat(arity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program_lenient;

    fn infer(src: &str) -> AdornmentInfo {
        let program = parse_program_lenient(src).unwrap().output.program;
        AdornmentInfo::infer(&program, &crate::stratify::components(&program))
    }

    #[test]
    fn transitive_closure_probes_edge_on_second_column() {
        let info = infer("tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n");
        let e = Pred::new("e", 2);
        let sigs = &info.sigs[&e];
        // The delta-pinned plan (tc(Z,Y) first) probes e on column 1; the
        // firing plans probe it on column 0 (tc delta binds Z).
        assert!(sigs.contains([1usize].as_slice()), "{sigs:?}");
        assert!(info.patterns[&e].contains("fb"), "{:?}", info.patterns[&e]);
        assert!(info.patterns[&e].contains("ff"));
        // tc itself is probed with its first column bound (e binds Z).
        assert!(info.sigs[&Pred::new("tc", 2)].contains([0usize].as_slice()));
        assert!(info.plans_considered >= 6);
    }

    #[test]
    fn negative_literals_contribute_bound_patterns() {
        let info = infer("v(X) :- q(X), not r(X).\n");
        let r = Pred::new("r", 1);
        // q binds X before the negative runs: fully bound membership test.
        assert!(info.patterns[&r].contains("b"), "{:?}", info.patterns);
        // The head predicate is membership-tested by insertion rule (6).
        assert!(info.patterns[&Pred::new("v", 1)].contains("b"));
    }

    #[test]
    fn holds_seed_binds_head_variables() {
        let info = infer("emp_city(E, C) :- emp(E, D), dept(D, C).\n");
        // With E and C bound, emp is probed on column 0 and dept on both.
        assert!(info.sigs[&Pred::new("emp", 2)].contains([0usize].as_slice()));
        assert!(info.sigs[&Pred::new("dept", 2)].contains([0usize, 1].as_slice()));
    }
}
