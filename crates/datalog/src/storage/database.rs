//! The deductive database `D = (F, DR, IC)` of §2: an extensional store of
//! base facts plus an intensional [`Program`] (deductive rules and integrity
//! rules share one representation).

use crate::ast::{Atom, Const, Pred};
use crate::error::SchemaError;
use crate::schema::Program;
use crate::storage::relation::Relation;
use crate::storage::tuple::Tuple;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

fn empty_relation() -> &'static Relation {
    static EMPTY: OnceLock<Relation> = OnceLock::new();
    EMPTY.get_or_init(Relation::new)
}

/// A deductive database: extensional facts + intensional program.
///
/// A clone shares the program and every relation's tuples with its origin
/// (see [`Relation`]), so the new state `Dⁿ` of a transaction and a
/// published snapshot cost what the transaction changed, not what the
/// database holds.
#[derive(Clone, Debug, Default)]
pub struct Database {
    program: Arc<Program>,
    edb: BTreeMap<Pred, Relation>,
}

impl Database {
    /// Creates a database with the given intensional part and no facts.
    pub fn new(program: Program) -> Database {
        Database {
            program: Arc::new(program),
            edb: BTreeMap::new(),
        }
    }

    /// A database with `program` and the relations of `facts`, one per
    /// predicate. Validates each predicate like
    /// [`Database::assert_tuple`], in the order given, and fails at the
    /// first that is derived.
    pub(crate) fn from_relations(
        program: Program,
        facts: impl IntoIterator<Item = (Pred, Relation)>,
    ) -> Result<Database, SchemaError> {
        let mut edb = BTreeMap::new();
        for (pred, rel) in facts {
            if program.is_derived(pred) {
                return Err(SchemaError::FactOnDerivedPredicate(pred));
            }
            debug_assert!(rel.iter().all(|t| t.arity() == pred.arity));
            edb.insert(pred, rel);
        }
        Ok(Database {
            program: Arc::new(program),
            edb,
        })
    }

    /// The intensional part.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Asserts a ground base fact. Errors if the predicate is derived (§2:
    /// base and derived predicates are disjoint). Returns `true` if the
    /// fact was new.
    pub fn assert_fact(&mut self, atom: &Atom) -> Result<bool, SchemaError> {
        let tuple = atom
            .as_tuple()
            .ok_or(SchemaError::ArityMismatch {
                pred: atom.pred,
                got: atom.terms.len(),
            })?
            .into();
        self.assert_tuple(atom.pred, tuple)
    }

    /// Asserts a base fact given as predicate + tuple.
    pub fn assert_tuple(&mut self, pred: Pred, tuple: Tuple) -> Result<bool, SchemaError> {
        if self.program.is_derived(pred) {
            return Err(SchemaError::FactOnDerivedPredicate(pred));
        }
        if tuple.arity() != pred.arity {
            return Err(SchemaError::ArityMismatch {
                pred,
                got: tuple.arity(),
            });
        }
        Ok(self.edb.entry(pred).or_default().insert(tuple))
    }

    /// Retracts a ground base fact; returns `true` if it was present.
    pub fn retract_tuple(&mut self, pred: Pred, tuple: &Tuple) -> bool {
        self.edb.get_mut(&pred).is_some_and(|r| r.remove(tuple))
    }

    /// Bulk-asserts base facts for one predicate in one call on its
    /// relation (which updates its indexes). Returns the number of fresh
    /// tuples. Validates like [`Database::assert_tuple`], before touching
    /// the relation.
    pub fn extend_tuples(
        &mut self,
        pred: Pred,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, SchemaError> {
        if self.program.is_derived(pred) {
            return Err(SchemaError::FactOnDerivedPredicate(pred));
        }
        let tuples: Vec<Tuple> = tuples.into_iter().collect();
        if let Some(t) = tuples.iter().find(|t| t.arity() != pred.arity) {
            return Err(SchemaError::ArityMismatch {
                pred,
                got: t.arity(),
            });
        }
        Ok(self.edb.entry(pred).or_default().extend(tuples).len())
    }

    /// Bulk-retracts base facts for one predicate in one call on its
    /// relation (which updates its indexes). Returns the number removed.
    pub fn remove_tuples<'a>(
        &mut self,
        pred: Pred,
        tuples: impl IntoIterator<Item = &'a Tuple>,
    ) -> usize {
        self.edb.get_mut(&pred).map_or(0, |r| r.remove_all(tuples))
    }

    /// The extensional relation for `pred` (empty if no facts).
    pub fn relation(&self, pred: Pred) -> &Relation {
        self.edb.get(&pred).unwrap_or_else(|| empty_relation())
    }

    /// True iff the ground base fact holds extensionally.
    pub fn holds(&self, pred: Pred, tuple: &Tuple) -> bool {
        self.relation(pred).contains(tuple)
    }

    /// All base predicates with at least one fact, in deterministic order.
    pub fn extensional_predicates(&self) -> impl Iterator<Item = Pred> + '_ {
        self.edb
            .iter()
            .filter(|(_, r)| !r.is_empty())
            .map(|(&p, _)| p)
    }

    /// Total number of stored base facts.
    pub fn fact_count(&self) -> usize {
        self.edb.values().map(Relation::len).sum()
    }

    /// The *active domain*: every constant in the extensional database, the
    /// rules, and the `#domain` declarations. §2 assumes terms range over
    /// finite domains; this is the default such domain.
    pub fn active_domain(&self) -> BTreeSet<Const> {
        let mut dom = self.program.declared_domain().clone();
        dom.extend(self.program.rule_constants());
        for rel in self.edb.values() {
            dom.extend(rel.constants());
        }
        dom
    }

    /// Rebuilds this database under a different intensional part, keeping
    /// the extensional facts. Fails if a stored fact's predicate is
    /// derived in the new program (§2's base/derived partition must hold
    /// before and after any update, including rule updates).
    pub fn with_program(&self, program: Program) -> Result<Database, SchemaError> {
        let mut out = Database::new(program);
        for (pred, rel) in &self.edb {
            for t in rel.iter() {
                out.assert_tuple(*pred, t.clone())?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Literal, Rule, Term};
    use crate::storage::tuple::syms;

    fn db_with_unemp() -> Database {
        let mut b = Program::builder();
        b.rule(Rule::new(
            Atom::new("unemp", vec![Term::var("X")]),
            vec![
                Literal::pos(Atom::new("la", vec![Term::var("X")])),
                Literal::neg(Atom::new("works", vec![Term::var("X")])),
            ],
        ));
        Database::new(b.build().unwrap())
    }

    #[test]
    fn assert_and_query_base_fact() {
        let mut db = db_with_unemp();
        let fact = Atom::ground("la", vec![Const::sym("dolors")]);
        assert!(db.assert_fact(&fact).unwrap());
        assert!(!db.assert_fact(&fact).unwrap()); // duplicate
        assert!(db.holds(Pred::new("la", 1), &syms(&["dolors"])));
        assert_eq!(db.fact_count(), 1);
    }

    #[test]
    fn fact_on_derived_predicate_rejected() {
        let mut db = db_with_unemp();
        let err = db
            .assert_fact(&Atom::ground("unemp", vec![Const::sym("x")]))
            .unwrap_err();
        assert!(matches!(err, SchemaError::FactOnDerivedPredicate(_)));
    }

    #[test]
    fn non_ground_fact_rejected() {
        let mut db = db_with_unemp();
        let err = db
            .assert_fact(&Atom::new("la", vec![Term::var("X")]))
            .unwrap_err();
        assert!(matches!(err, SchemaError::ArityMismatch { .. }));
    }

    #[test]
    fn retract() {
        let mut db = db_with_unemp();
        db.assert_fact(&Atom::ground("la", vec![Const::sym("a")]))
            .unwrap();
        assert!(db.retract_tuple(Pred::new("la", 1), &syms(&["a"])));
        assert!(!db.retract_tuple(Pred::new("la", 1), &syms(&["a"])));
        assert_eq!(db.fact_count(), 0);
    }

    #[test]
    fn active_domain_includes_facts_and_declared() {
        let mut b = Program::builder();
        b.domain([Const::sym("extra")]);
        b.rule(Rule::new(
            Atom::new("p", vec![Term::var("X")]),
            vec![Literal::pos(Atom::new(
                "q",
                vec![Term::var("X"), Term::sym("rulec")],
            ))],
        ));
        let mut db = Database::new(b.build().unwrap());
        db.assert_fact(&Atom::ground(
            "q",
            vec![Const::sym("factc"), Const::sym("rulec")],
        ))
        .unwrap();
        let dom = db.active_domain();
        for c in ["extra", "rulec", "factc"] {
            assert!(dom.contains(&Const::sym(c)), "missing {c}");
        }
    }

    #[test]
    fn relation_for_unknown_pred_is_empty() {
        let db = db_with_unemp();
        assert!(db.relation(Pred::new("nothing", 3)).is_empty());
    }
}
