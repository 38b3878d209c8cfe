//! Static cardinality and cost bounds — pass codes `W009`/`W010`, and the
//! [`CostModel`] behind `dduf analyze`'s per-predicate bound and size
//! class.
//!
//! Every predicate gets a sound upper bound on its extension, propagated
//! over the dependency SCCs in topological order:
//!
//! * a base predicate is bounded by its exact EDB fact count;
//! * a non-recursive derived predicate is bounded per rule — by the
//!   smallest positive body literal that *covers* the head variables when
//!   one exists (each head tuple is a projection of that literal's
//!   bindings), otherwise by the capped product of the positive body
//!   bounds — and the rule bounds sum;
//! * members of recursive SCCs are unbounded (the fixpoint can square
//!   through the cycle), as is any bound exceeding [`BOUND_CAP`].
//!
//! Bounds collapse into a [`SizeClass`] for the report. Evaluation does
//! not consult the model: whether a probe uses an index is decided by the
//! probed relation alone (`Relation::probe_cols`, DESIGN.md §13).

use super::{AnalysisInput, Diagnostic, Label, Pass};
use crate::ast::{Pred, Rule, Term, Var};
use crate::schema::{DerivedRole, Program, Role};
use std::collections::{BTreeMap, BTreeSet};

use super::dataflow::Dataflow;

/// Relations below this size are always scanned — matching the index
/// machinery's own floor in `storage::relation` (`INDEX_MIN`).
pub const TINY_MAX: usize = 16;

/// Upper edge of [`SizeClass::Small`].
pub const SMALL_MAX: usize = 256;

/// Bounds above this are treated as unbounded: the product form would
/// otherwise overflow and the distinction carries no planning signal.
pub const BOUND_CAP: u64 = 1 << 20;

/// The size class a static bound collapses into.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum SizeClass {
    /// Provably empty (bound 0): plans touching it positively are dead.
    Empty,
    /// Bound below [`TINY_MAX`]: scanning always beats indexing.
    Tiny,
    /// Bound below [`SMALL_MAX`].
    Small,
    /// Large or unbounded (recursive, or above [`BOUND_CAP`]).
    Large,
}

impl SizeClass {
    /// Classifies a bound (`None` = unbounded).
    pub fn of(bound: Option<u64>) -> SizeClass {
        match bound {
            Some(0) => SizeClass::Empty,
            Some(n) if n < TINY_MAX as u64 => SizeClass::Tiny,
            Some(n) if n < SMALL_MAX as u64 => SizeClass::Small,
            _ => SizeClass::Large,
        }
    }

    /// Stable lowercase name (report JSON).
    pub fn name(self) -> &'static str {
        match self {
            SizeClass::Empty => "empty",
            SizeClass::Tiny => "tiny",
            SizeClass::Small => "small",
            SizeClass::Large => "large",
        }
    }
}

impl std::fmt::Display for SizeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-predicate cardinality bounds and size classes for one program +
/// EDB snapshot. Cheap to compute (linear in the program over the SCC
/// order).
#[derive(Clone, Debug, Default)]
pub struct CostModel {
    /// Static upper bound on each predicate's extension; `None` when
    /// unbounded (recursive or above [`BOUND_CAP`]).
    pub bounds: BTreeMap<Pred, Option<u64>>,
    /// The bound's [`SizeClass`].
    pub classes: BTreeMap<Pred, SizeClass>,
}

impl CostModel {
    /// Computes bounds for `program` given exact EDB fact counts.
    pub fn compute(program: &Program, edb_counts: &BTreeMap<Pred, usize>) -> CostModel {
        let flow = Dataflow::new(program);
        Self::compute_with(&flow, edb_counts)
    }

    /// [`CostModel::compute`] over an already-built [`Dataflow`] context.
    pub fn compute_with(flow: &Dataflow<'_>, edb_counts: &BTreeMap<Pred, usize>) -> CostModel {
        let program = flow.program;
        let mut bounds: BTreeMap<Pred, Option<u64>> = BTreeMap::new();
        let bound_of = |bounds: &BTreeMap<Pred, Option<u64>>, p: Pred| -> Option<u64> {
            if let Some(b) = bounds.get(&p) {
                return *b;
            }
            // Not computed yet: a base predicate (or an underivable one,
            // which stays empty).
            if program.is_derived(p) {
                None
            } else {
                Some(edb_counts.get(&p).copied().unwrap_or(0) as u64)
            }
        };
        // SCCs arrive dependencies-first, so every body predicate is
        // resolved before its dependents.
        for comp in &flow.sccs {
            if comp.iter().any(|&p| flow.is_recursive(p)) {
                for &p in comp {
                    bounds.insert(p, None);
                }
                continue;
            }
            for &p in comp {
                if !program.is_derived(p) {
                    bounds.insert(p, Some(edb_counts.get(&p).copied().unwrap_or(0) as u64));
                    continue;
                }
                let mut total: Option<u64> = Some(0);
                for rule in program.rules_for(p) {
                    let rb = rule_bound(rule, |q| bound_of(&bounds, q));
                    total = match (total, rb) {
                        (Some(t), Some(r)) => Some((t + r).min(BOUND_CAP)),
                        _ => None,
                    };
                }
                let capped = total.filter(|&t| t < BOUND_CAP);
                bounds.insert(p, capped);
            }
        }
        // Base predicates never mentioned in a rule still deserve a class.
        for (&p, &n) in edb_counts {
            bounds.entry(p).or_insert(Some(n as u64));
        }
        let classes = bounds
            .iter()
            .map(|(&p, &b)| (p, SizeClass::of(b)))
            .collect();
        CostModel { bounds, classes }
    }

    /// The size class of `pred`; unknown predicates default to
    /// [`SizeClass::Large`] (the conservative choice).
    pub fn class(&self, pred: Pred) -> SizeClass {
        self.classes.get(&pred).copied().unwrap_or(SizeClass::Large)
    }

    /// The static bound of `pred` (`None` = unbounded or unknown).
    pub fn bound(&self, pred: Pred) -> Option<u64> {
        self.bounds.get(&pred).copied().flatten()
    }

    /// Worst-case cost estimate for one rule's full (all-free) plan: the
    /// capped product of its positive body bounds — the join frontier an
    /// evaluation could generate. `None` = unbounded.
    pub fn rule_cost(&self, rule: &Rule) -> Option<u64> {
        let mut cost: u64 = 1;
        for lit in rule.body.iter().filter(|l| l.positive) {
            cost = cost.saturating_mul(self.bound(lit.atom.pred)?);
            if cost >= BOUND_CAP {
                return None;
            }
        }
        Some(cost)
    }
}

/// Bound for one rule: the smallest covering positive literal when one
/// exists, else the capped product of positive bounds.
fn rule_bound(rule: &Rule, bound_of: impl Fn(Pred) -> Option<u64>) -> Option<u64> {
    let head_vars: BTreeSet<Var> = rule.head.vars().into_iter().collect();
    let positives: Vec<_> = rule.body.iter().filter(|l| l.positive).collect();
    let covering = positives
        .iter()
        .filter(|l| {
            let vars: BTreeSet<Var> = l.atom.vars().into_iter().collect();
            head_vars.is_subset(&vars)
        })
        .filter_map(|l| bound_of(l.atom.pred))
        .min();
    if let Some(c) = covering {
        return Some(c.min(BOUND_CAP));
    }
    let mut product: u64 = 1;
    for l in &positives {
        product = product.saturating_mul(bound_of(l.atom.pred)?);
        if product >= BOUND_CAP {
            return None;
        }
    }
    Some(product)
}

/// The cost-bounds lint pass: rule shapes that make evaluation (or the
/// paper's update machinery) blow up regardless of plan choice.
pub struct CostBounds;

impl Pass for CostBounds {
    fn name(&self) -> &'static str {
        "cost-bounds"
    }

    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let flow = Dataflow::new(input.program);
        for rule in input.program.rules() {
            cross_product(rule, out);
        }
        // W010: a guard predicate (constraint or condition) positively
        // over a recursive one — every relevant transaction maintains the
        // recursive component by DRed to keep the guard current. (Negative
        // occurrences are W005's, reported by the recursion pass.)
        for rule in input.program.rules() {
            let guard = matches!(
                input.program.role(rule.head.pred),
                Some(Role::Derived(DerivedRole::Ic)) | Some(Role::Derived(DerivedRole::Cond))
            );
            if !guard {
                continue;
            }
            for lit in rule.body.iter().filter(|l| l.positive) {
                if !flow.is_recursive(lit.atom.pred) {
                    continue;
                }
                let mut d = Diagnostic::warning(
                    "W010",
                    format!(
                        "constraint or condition `{}` guards recursive `{}`: every relevant \
                         update maintains the recursive component by DRed before the guard is read",
                        rule.head.pred.name, lit.atom.pred.name
                    ),
                )
                .with_help(
                    "bound the recursion (materialize a non-recursive summary) if the guard \
                     must stay cheap to monitor",
                );
                if let Some(l) = Label::of_atom(&lit.atom, "recursive predicate guarded here") {
                    d = d.with_primary(l);
                } else if let Some(span) = rule.span() {
                    d = d.with_primary(Label::new(span, "in this rule"));
                }
                out.push(d);
            }
        }
    }
}

/// W009: positive body literals that split into disconnected variable
/// groups — the join is a cartesian product, quadratic (or worse) in the
/// group sizes no matter how the planner orders it.
fn cross_product(rule: &Rule, out: &mut Vec<Diagnostic>) {
    let positives: Vec<&crate::ast::Atom> = rule
        .body
        .iter()
        .filter(|l| l.positive)
        .map(|l| &l.atom)
        .collect();
    // Ground literals are filters, not join factors.
    let factors: Vec<&crate::ast::Atom> = positives
        .into_iter()
        .filter(|a| a.terms.iter().any(|t| matches!(t, Term::Var(_))))
        .collect();
    if factors.len() < 2 {
        return;
    }
    // Union-find-lite over the factors, connected through shared variables.
    let mut group: Vec<usize> = (0..factors.len()).collect();
    let vars: Vec<BTreeSet<Var>> = factors
        .iter()
        .map(|a| a.vars().into_iter().collect())
        .collect();
    for i in 0..factors.len() {
        for j in i + 1..factors.len() {
            if vars[i].intersection(&vars[j]).next().is_some() {
                let (gi, gj) = (group[i], group[j]);
                if gi != gj {
                    for g in &mut group {
                        if *g == gj {
                            *g = gi;
                        }
                    }
                }
            }
        }
    }
    let groups: BTreeSet<usize> = group.iter().copied().collect();
    if groups.len() < 2 {
        return;
    }
    let mut d = Diagnostic::warning(
        "W009",
        format!(
            "cartesian product: the positive body literals of this `{}` rule form {} \
             disconnected variable groups",
            rule.head.pred.name,
            groups.len()
        ),
    )
    .with_help("join the groups through a shared variable, or split the rule");
    if let Some(l) = Label::of_atom(&rule.head, "rule whose body is a cross product") {
        d = d.with_primary(l);
    } else if let Some(span) = rule.span() {
        d = d.with_primary(Label::new(span, "in this rule"));
    }
    // Point at one representative literal per group.
    for &g in &groups {
        let rep = factors[group.iter().position(|&x| x == g).unwrap()];
        if let Some(l) = Label::of_atom(rep, "independent group starts here") {
            d = d.with_secondary(l);
        }
    }
    out.push(d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_source;
    use crate::parser::parse_program_lenient;

    fn model(src: &str, counts: &[(&str, usize, usize)]) -> CostModel {
        let lp = parse_program_lenient(src).unwrap();
        let counts: BTreeMap<Pred, usize> = counts
            .iter()
            .map(|&(n, a, c)| (Pred::new(n, a), c))
            .collect();
        CostModel::compute(&lp.output.program, &counts)
    }

    #[test]
    fn base_bounds_are_exact_and_derived_bounds_sound() {
        let m = model(
            "v(X) :- a(X), not b(X).\nw(X, Y) :- a(X), c(Y).\n",
            &[("a", 1, 10), ("b", 1, 3), ("c", 1, 5)],
        );
        assert_eq!(m.bound(Pred::new("a", 1)), Some(10));
        // v is covered by a: at most 10 tuples.
        assert_eq!(m.bound(Pred::new("v", 1)), Some(10));
        assert_eq!(m.class(Pred::new("v", 1)), SizeClass::Tiny);
        // w has no covering literal: product bound.
        assert_eq!(m.bound(Pred::new("w", 2)), Some(50));
        assert_eq!(m.class(Pred::new("w", 2)), SizeClass::Small);
    }

    #[test]
    fn recursion_is_unbounded_and_large() {
        let m = model(
            "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n",
            &[("e", 2, 20)],
        );
        assert_eq!(m.bound(Pred::new("tc", 2)), None);
        assert_eq!(m.class(Pred::new("tc", 2)), SizeClass::Large);
        assert_eq!(m.rule_cost(&m_rule()), None);
    }

    fn m_rule() -> Rule {
        // tc(X,Y) :- e(X,Z), tc(Z,Y): rule_cost over an unbounded literal.
        parse_program_lenient("tc(X, Y) :- e(X, Z), tc(Z, Y).\n")
            .unwrap()
            .output
            .program
            .rules()[0]
            .clone()
    }

    #[test]
    fn cross_product_flagged_as_w009() {
        let a = analyze_source("pairs(X, Y) :- person(X), city(Y).\n");
        let d = a.diagnostics.iter().find(|d| d.code == "W009").unwrap();
        assert!(d.message.contains("2 disconnected"), "{}", d.message);
        // Connected bodies are silent.
        let a = analyze_source("lives(X, Y) :- person(X), home(X, Y).\n");
        assert!(a.diagnostics.iter().all(|d| d.code != "W009"));
    }

    #[test]
    fn guard_over_recursion_flagged_as_w010() {
        let a =
            analyze_source("tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n:- tc(X, X).\n");
        assert!(
            a.diagnostics.iter().any(|d| d.code == "W010"),
            "{:?}",
            a.diagnostics
        );
        let a = analyze_source("v(X) :- e(X).\n:- v(X), not ok(X).\n");
        assert!(a.diagnostics.iter().all(|d| d.code != "W010"));
    }
}
