//! Bottom-up evaluation of stratified programs: computing the perfect model
//! of the deductive database, stratum by stratum.
//!
//! [`materialize`] is the reference evaluator, the oracle the upward
//! engine is tested against: a naive fixpoint per component ([`naive`]).
//! The production build of derived state is the maintenance engine's own
//! (`dduf_core::upward::maintain`); both join through [`plan`]'s kernel.

pub mod join;
pub mod naive;
pub mod plan;

use crate::ast::Pred;
use crate::error::Error;
use crate::safety;
use crate::storage::database::Database;
use crate::storage::relation::Relation;
use crate::storage::tuple::Tuple;
use crate::stratify::stratify;
use std::collections::BTreeMap;
use std::sync::OnceLock;

fn empty_relation() -> &'static Relation {
    static EMPTY: OnceLock<Relation> = OnceLock::new();
    EMPTY.get_or_init(Relation::new)
}

/// Semantic evaluation counters for one component fixpoint, returned by
/// the component evaluators and recorded by their caller (the
/// materializer, or the upward engine). Every counter is a function of
/// the program and the data alone (DESIGN.md §11).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ComponentTrace {
    /// Join work, every round included (DESIGN.md §12).
    pub stats: join::JoinStats,
    /// Join plans compiled for this component (the materializer compiles
    /// one per rule; the engine counts its compiled firings).
    pub plans: u64,
    /// Per-round derivation and delta counts, in round order.
    pub rounds: Vec<RoundTrace>,
}

/// One fixpoint round's semantic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundTrace {
    /// Derivations produced this round, before deduplication.
    pub tuples: u64,
    /// Genuinely new tuples this round (post-dedup delta cardinality).
    pub delta: u64,
}

impl ComponentTrace {
    /// Appends one round's counters.
    pub fn push_round(&mut self, tuples: u64, delta: u64) {
        self.rounds.push(RoundTrace { tuples, delta });
    }

    /// Total derivations across all rounds (pre-dedup).
    pub fn tuples(&self) -> u64 {
        self.rounds.iter().map(|r| r.tuples).sum()
    }
}

/// Records a component's trace under `eval.scc` (aggregate) and
/// `eval.round` (per-round detail) spans. Callers check
/// [`dduf_obs::enabled`] first to skip label formatting on untraced
/// runs.
pub fn record_component_trace(label: &str, trace: &ComponentTrace) {
    dduf_obs::record(
        "eval.scc",
        label,
        &[
            ("rounds", trace.rounds.len() as u64),
            ("tuples", trace.tuples()),
            ("probes", trace.stats.probes),
            ("matches", trace.stats.matches),
            ("indexed_probes", trace.stats.indexed_probes),
            ("scan_probes", trace.stats.scan_probes),
        ],
    );
    if trace.plans > 0 {
        dduf_obs::record("plan.compile", label, &[("compiled", trace.plans)]);
    }
    for (i, round) in trace.rounds.iter().enumerate() {
        dduf_obs::record(
            "eval.round",
            &format!("{label}#r{i}"),
            &[("tuples", round.tuples), ("delta", round.delta)],
        );
    }
}

/// Stable span label for a component: its predicates joined with `+`.
pub fn component_label(preds: &[Pred]) -> String {
    preds
        .iter()
        .map(Pred::to_string)
        .collect::<Vec<_>>()
        .join("+")
}

/// The computed extensions of the derived predicates (the intensional part
/// of the perfect model).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Interpretation {
    derived: BTreeMap<Pred, Relation>,
}

impl Interpretation {
    /// The extension of a derived predicate (empty if not computed).
    pub fn relation(&self, pred: Pred) -> &Relation {
        self.derived.get(&pred).unwrap_or_else(|| empty_relation())
    }

    /// True iff the ground derived fact holds.
    pub fn holds(&self, pred: Pred, tuple: &Tuple) -> bool {
        self.relation(pred).contains(tuple)
    }

    /// All derived predicates with their extensions.
    pub fn iter(&self) -> impl Iterator<Item = (Pred, &Relation)> + '_ {
        self.derived.iter().map(|(&p, r)| (p, r))
    }

    /// Total number of derived facts.
    pub fn fact_count(&self) -> usize {
        self.derived.values().map(Relation::len).sum()
    }

    /// Sets the extension of a derived predicate, replacing any earlier
    /// one: the materializer installs each component's result, the upward
    /// engine each extension it builds or maintains.
    pub fn set(&mut self, pred: Pred, rel: Relation) {
        self.derived.insert(pred, rel);
    }
}

/// A complete database state: extensional facts plus the computed
/// interpretation of the derived predicates. This is what "evaluating a
/// literal in the old (or new) state" queries.
#[derive(Clone, Copy)]
pub struct StateView<'a> {
    /// The extensional database.
    pub db: &'a Database,
    /// The computed derived extensions.
    pub interp: &'a Interpretation,
}

impl<'a> StateView<'a> {
    /// Creates a view.
    pub fn new(db: &'a Database, interp: &'a Interpretation) -> StateView<'a> {
        StateView { db, interp }
    }

    /// The extension of any predicate in this state.
    pub fn relation(&self, pred: Pred) -> &'a Relation {
        if self.db.program().is_derived(pred) {
            self.interp.relation(pred)
        } else {
            self.db.relation(pred)
        }
    }

    /// True iff the ground fact holds in this state.
    pub fn holds(&self, pred: Pred, tuple: &Tuple) -> bool {
        self.relation(pred).contains(tuple)
    }
}

/// Materializes all derived predicates of `db`, component by component
/// with the naive fixpoint.
///
/// Checks allowedness and stratifiability first; both are required by §2.
pub fn materialize(db: &Database) -> Result<Interpretation, Error> {
    materialize_restricted(db, None)
}

/// Materializes only the derived predicates *relevant to* `roots`: the
/// roots themselves plus everything they transitively depend on
/// (predicate-level magic restriction — sound because a predicate's
/// extension depends only on predicates reachable from it in the
/// dependency graph). Useful for point problems (e.g. checking one
/// constraint) where materializing unrelated views is wasted work.
pub fn materialize_for(db: &Database, roots: &[Pred]) -> Result<Interpretation, Error> {
    materialize_restricted(db, Some(roots))
}

fn materialize_restricted(db: &Database, roots: Option<&[Pred]>) -> Result<Interpretation, Error> {
    let program = db.program();
    safety::check_program(program)?;
    let components = stratify(program)?;

    let relevant: Option<std::collections::BTreeSet<Pred>> = roots.map(|roots| {
        let graph = crate::depgraph::DepGraph::build(program);
        let mut set: std::collections::BTreeSet<Pred> = roots.iter().copied().collect();
        for &r in roots {
            set.extend(graph.reachable(r));
        }
        set
    });

    // Components come in dependency order, so each one reads only
    // extensions that are already complete. A relevant component's
    // dependencies are reachable from the roots, hence relevant too.
    let tracing = dduf_obs::enabled();
    let timer = dduf_obs::timer();
    let mut evaluated = 0u64;
    let mut interp = Interpretation::default();
    for component in &components {
        if relevant
            .as_ref()
            .is_some_and(|rel| !component.preds.iter().any(|p| rel.contains(p)))
        {
            continue;
        }
        let (results, trace) = naive::eval_component(db, &interp, component);
        evaluated += 1;
        if tracing {
            record_component_trace(&component_label(&component.preds), &trace);
        }
        for (pred, rel) in results {
            interp.set(pred, rel);
        }
    }
    if tracing {
        dduf_obs::record_timed(
            "eval.materialize",
            "",
            &[
                ("components", evaluated),
                ("skipped", components.len() as u64 - evaluated),
                ("facts", interp.fact_count() as u64),
            ],
            timer.elapsed_us(),
        );
    }
    Ok(interp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_database;

    #[test]
    fn materialize_for_restricts_to_reachable() {
        let db = parse_database(
            "b(a).
             v(X) :- b(X).
             w(X) :- v(X).
             unrelated(X) :- b(X).",
        )
        .unwrap();
        let full = materialize(&db).unwrap();
        let part = materialize_for(&db, &[Pred::new("w", 1)]).unwrap();
        // w and its dependency v computed, and equal to the full model.
        assert_eq!(
            part.relation(Pred::new("w", 1)),
            full.relation(Pred::new("w", 1))
        );
        assert_eq!(
            part.relation(Pred::new("v", 1)),
            full.relation(Pred::new("v", 1))
        );
        // unrelated was skipped.
        assert!(part.relation(Pred::new("unrelated", 1)).is_empty());
        assert!(!full.relation(Pred::new("unrelated", 1)).is_empty());
    }

    #[test]
    fn materialize_for_handles_recursive_roots() {
        let db = parse_database(
            "e(a, b). e(b, c).
             tc(X, Y) :- e(X, Y).
             tc(X, Y) :- e(X, Z), tc(Z, Y).
             other(X) :- e(X, _).",
        )
        .unwrap();
        let part = materialize_for(&db, &[Pred::new("tc", 2)]).unwrap();
        assert_eq!(part.relation(Pred::new("tc", 2)).len(), 3);
        assert!(part.relation(Pred::new("other", 1)).is_empty());
    }

    #[test]
    fn materialize_for_the_global_ic_matches_full() {
        // The constraint's cone goes through negation of base predicates;
        // the unrelated views outside it are skipped.
        let mut src = String::from(
            "unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).
             la(p0). la(p1). la(p2). works(p1). u_benefit(p2).\n",
        );
        for v in 0..4 {
            src.push_str(&format!("view{v}(X) :- base{}(X). base{v}(p{v}).\n", v % 2));
        }
        let db = parse_database(&src).unwrap();
        let ic = db.program().global_ic().unwrap();
        let full = materialize(&db).unwrap();
        let part = materialize_for(&db, &[ic]).unwrap();
        assert!(!full.relation(ic).is_empty());
        assert_eq!(part.relation(ic), full.relation(ic));
        let unemp = Pred::new("unemp", 1);
        assert_eq!(part.relation(unemp), full.relation(unemp));
        assert!(part.relation(Pred::new("view0", 1)).is_empty());
        assert!(!full.relation(Pred::new("view0", 1)).is_empty());
    }

    #[test]
    fn materialize_records_deterministic_spans() {
        let db = parse_database(
            "e(a, b). e(b, c). e(c, d).
             tc(X, Y) :- e(X, Y).
             tc(X, Y) :- e(X, Z), tc(Z, Y).
             top(X) :- tc(X, d).",
        )
        .unwrap();
        let (_, report) = dduf_obs::capture(|| materialize(&db).unwrap());
        // Two components (tc, top).
        assert_eq!(report.counter("eval.materialize", "", "components"), 2);
        assert_eq!(report.counter("eval.materialize", "", "facts"), 6 + 3);
        // Chain of 3 edges: round 0 derives the base pairs, two more
        // rounds extend, one empty round detects the fixpoint.
        assert_eq!(report.counter("eval.scc", "tc/2", "rounds"), 4);
        assert_eq!(report.counter("eval.scc", "tc/2", "tuples"), 3 + 2 + 1);
        assert_eq!(report.counter("eval.round", "tc/2#r1", "delta"), 2);
        assert!(report.counter("eval.scc", "tc/2", "probes") > 0);

        // The semantic projection is the same on every run.
        let fingerprint = || {
            dduf_obs::capture(|| materialize(&db).unwrap())
                .1
                .semantic_fingerprint()
        };
        assert_eq!(fingerprint(), fingerprint());
    }

    /// One index policy: the materializer probes through
    /// `Relation::probe` alone, so it indexes only the non-prefix column
    /// sets it probes, and a probe counts as indexed exactly when its
    /// relation has at least `INDEX_MIN` tuples, whatever indexes the
    /// relation already holds.
    #[test]
    fn materialize_indexes_only_the_non_prefix_sets_it_probes() {
        use crate::storage::relation::INDEX_MIN;
        use std::fmt::Write as _;
        let mut src = String::from(
            "exploitable(H) :- vuln(H).
             exposed_zone(Z) :- host(H, Z), exploitable(H).
             patched_zone(Z) :- host(H, Z), patched(H).
             hot_host(H) :- hot(Z), host(H, Z).
             owner(O) :- exposed_zone(Z), owns(O, Z).
             hot(z0).\n",
        );
        for i in 0..32 {
            let _ = writeln!(src, "host(h{i}, z{}).", i % 4);
        }
        for i in 0..10 {
            let _ = writeln!(src, "vuln(h{i}).");
        }
        for i in 0..3 {
            let _ = writeln!(src, "patched(h{i}).");
        }
        for z in 0..4 {
            let _ = writeln!(src, "owns(o{z}, z{z}).");
        }
        let db = parse_database(&src).unwrap();
        let host = db.relation(Pred::new("host", 2));
        let owns = db.relation(Pred::new("owns", 2));
        assert!(host.len() >= INDEX_MIN && owns.len() < INDEX_MIN);

        let (_, first) = dduf_obs::capture(|| materialize(&db).unwrap());
        // `exposed_zone` and `patched_zone` probe `host` on its prefix
        // column: the sorted runs answer, nothing is built. Only
        // `hot_host`'s probe on column 1 builds an index; `owns` is small.
        assert_eq!(host.indexed_cols(), [Box::from([1usize])]);
        assert!(owns.indexed_cols().is_empty());
        // (indexed, scan) per component: one scan of the driving literal,
        // then one probe per driving tuple, indexed iff the probed
        // relation is large enough.
        let probes = |n: u64, rel: &Relation| {
            let indexed = rel.len() >= INDEX_MIN;
            (n * u64::from(indexed), 1 + n * u64::from(!indexed))
        };
        for (label, expected) in [
            ("exploitable/1", (0, 1)),
            ("exposed_zone/1", probes(10, host)),
            ("patched_zone/1", probes(3, host)),
            ("hot_host/1", probes(1, host)),
            ("owner/1", probes(4, owns)),
        ] {
            let split = (
                first.counter("eval.scc", label, "indexed_probes"),
                first.counter("eval.scc", label, "scan_probes"),
            );
            assert_eq!(split, expected, "{label}");
        }
        // A second run finds the index built: the counters do not move.
        let (_, second) = dduf_obs::capture(|| materialize(&db).unwrap());
        assert_eq!(second.semantic_fingerprint(), first.semantic_fingerprint());
    }

    #[test]
    fn untraced_materialize_records_nothing() {
        let db = parse_database("b(a). v(X) :- b(X).").unwrap();
        let m = materialize(&db).unwrap();
        assert_eq!(m.fact_count(), 1);
        assert!(dduf_obs::snapshot().is_none());
    }

    #[test]
    fn state_view_dispatches_base_and_derived() {
        let db = parse_database("b(a). v(X) :- b(X).").unwrap();
        let m = materialize(&db).unwrap();
        let view = StateView::new(&db, &m);
        assert_eq!(view.relation(Pred::new("b", 1)).len(), 1);
        assert_eq!(view.relation(Pred::new("v", 1)).len(), 1);
        assert!(view.holds(Pred::new("v", 1), &crate::storage::tuple::syms(&["a"])));
    }
}
