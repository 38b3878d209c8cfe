//! The **downward interpretation** of the event rules (§4.2).
//!
//! Given a set of requested changes on derived predicates (and optionally a
//! fixed partial transaction and events to *prevent*), the downward
//! interpretation determines the alternative transactions — sets of base
//! events plus "must not happen" requirements — whose application to the
//! current state accomplishes the request:
//!
//! ```text
//! ins P(x̄) → Pⁿ(x̄) ∧ ¬P°(x̄)
//! del P(x̄) → P°(x̄) ∧ ¬Pⁿ(x̄)
//! ```
//!
//! In general the result is not unique; each [`Alternative`] is one
//! possible translation and the user (or a combining problem, §5.3)
//! selects among them.

pub mod nf;
pub mod translate;

use crate::domain::Domain;
use crate::error::{Error, Result};
use crate::transaction::Transaction;
use crate::upward::maintain::MaintenanceEngine;
use crate::upward::semantic;
use dduf_datalog::ast::Atom;
use dduf_datalog::eval::join::{ground_terms, match_tuple, Bindings};
use dduf_datalog::eval::{Interpretation, StateView};
use dduf_datalog::parser;
use dduf_datalog::storage::database::Database;
use dduf_datalog::storage::tuple::Tuple;
use dduf_events::event::{EventAtom, EventKind, GroundEvent};
use dduf_events::store::EventStore;
use std::fmt;
use translate::Translator;

/// Options controlling the downward search.
#[derive(Clone, Debug)]
pub struct DownwardOptions {
    /// Maximum number of alternatives carried at any point.
    pub max_alternatives: usize,
    /// Maximum number of instantiations of one event literal.
    pub max_groundings: usize,
    /// Maximum definition-unfolding depth.
    pub max_depth: usize,
    /// Use the paper-literal exhaustive negation (per-literal branching of
    /// every negation clause) instead of the default greedy strategy. See
    /// [`translate`] module docs: exhaustive enumerates every alternative
    /// including non-minimal compensations, at worst-case exponential
    /// cost; greedy keeps subset-minimal translations only.
    pub exhaustive_negation: bool,
    /// Explicit finite domain; defaults to the active domain of the
    /// database extended with the request's constants.
    pub domain: Option<Domain>,
}

impl Default for DownwardOptions {
    fn default() -> DownwardOptions {
        DownwardOptions {
            max_alternatives: 20_000,
            max_groundings: 10_000,
            max_depth: 64,
            exhaustive_negation: false,
            domain: None,
        }
    }
}

/// One item of a request: achieve or prevent one event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RequestItem {
    /// `true` to achieve the event, `false` to prevent it (`¬ev`).
    pub achieve: bool,
    /// The (possibly non-ground) event.
    pub event: EventAtom,
}

/// A downward request: a set of derived (or base) events to achieve and/or
/// prevent. A fixed partial transaction `T` is expressed as achieve-items
/// on base events (§5.2.2: "the downward interpretation of the set
/// `{T, ¬ins View(X)}`").
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Request {
    /// The items, processed conjunctively.
    pub items: Vec<RequestItem>,
}

impl Request {
    /// The empty request.
    pub fn new() -> Request {
        Request::default()
    }

    /// Adds an event to achieve.
    pub fn achieve(mut self, kind: EventKind, atom: Atom) -> Request {
        self.items.push(RequestItem {
            achieve: true,
            event: EventAtom::new(kind, atom),
        });
        self
    }

    /// Adds an event to prevent.
    pub fn prevent(mut self, kind: EventKind, atom: Atom) -> Request {
        self.items.push(RequestItem {
            achieve: false,
            event: EventAtom::new(kind, atom),
        });
        self
    }

    /// Adds a fixed transaction: all of its events must be performed.
    pub fn with_transaction(mut self, txn: &Transaction) -> Request {
        for e in txn.events().iter() {
            self.items.push(RequestItem {
                achieve: true,
                event: e.to_atom(),
            });
        }
        self
    }

    /// Parses achieve-items from surface syntax (`+p(a). -v(b).`). Events
    /// on derived predicates are view-update style requests; on base
    /// predicates they are a fixed transaction part.
    pub fn parse(src: &str) -> Result<Request> {
        let mut req = Request::new();
        for pe in parser::parse_events(src)? {
            let kind = if pe.insert {
                EventKind::Ins
            } else {
                EventKind::Del
            };
            req = req.achieve(kind, pe.atom);
        }
        Ok(req)
    }

    /// All constants mentioned in the request.
    pub fn constants(&self) -> Vec<dduf_datalog::ast::Const> {
        self.items
            .iter()
            .flat_map(|i| i.event.atom.terms.iter())
            .filter_map(|t| t.as_const())
            .collect()
    }
}

/// One translation: base events to perform plus events that must not be
/// performed alongside them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alternative {
    /// The transaction to perform.
    pub to_do: EventStore,
    /// Base events that must not additionally occur.
    pub must_not: EventStore,
}

impl Alternative {
    /// Converts the `to_do` part into a validated [`Transaction`].
    pub fn to_transaction(&self, db: &Database) -> Result<Transaction> {
        Transaction::from_events(db, self.to_do.iter())
    }
}

impl fmt::Display for Alternative {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_do)?;
        if !self.must_not.is_empty() {
            write!(f, " avoiding {}", self.must_not)?;
        }
        Ok(())
    }
}

/// The result of a downward interpretation.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct DownwardResult {
    /// The alternative translations, deterministic order, subsumption-
    /// pruned.
    pub alternatives: Vec<Alternative>,
    /// Ground requested events that were already satisfied in the current
    /// state (footnote 1: the request "does not make sense since it is
    /// already satisfied"); they impose no requirement.
    pub already_satisfied: Vec<GroundEvent>,
}

impl DownwardResult {
    /// True iff the request cannot be satisfied by base-fact updates alone
    /// (footnote 1, second case).
    pub fn is_impossible(&self) -> bool {
        self.alternatives.is_empty() && self.already_satisfied.is_empty()
    }

    /// True iff nothing needs to be done (every requested event already
    /// satisfied, no constraints).
    pub fn is_trivial(&self) -> bool {
        self.alternatives.len() == 1
            && self.alternatives[0].to_do.is_empty()
            && self.alternatives[0].must_not.is_empty()
    }
}

/// Downward-interprets `request` against `db`, reading the old state from
/// a throwaway maintenance engine that builds it.
pub fn interpret(
    db: &Database,
    request: &Request,
    opts: &DownwardOptions,
) -> Result<DownwardResult> {
    let engine = MaintenanceEngine::new(db)?;
    interpret_with(db, engine.interpretation(), request, opts)
}

/// Downward-interprets `request` with an explicit old-state
/// interpretation (must be the interpretation of `db`).
///
/// Uses the greedy negation strategy first (see [`translate`] module
/// docs); if it finds *no* translation — the one case where greedy's
/// strengthened prohibition branches can over-commit (forbidding several
/// events where the clause needs only one avoided, starving a later
/// clause) — the interpretation is automatically retried with the
/// paper-literal exhaustive branching, so an empty result is always
/// authoritative.
pub fn interpret_with(
    db: &Database,
    old: &Interpretation,
    request: &Request,
    opts: &DownwardOptions,
) -> Result<DownwardResult> {
    let first = interpret_once(db, old, request, opts)?;
    if first.alternatives.is_empty() && !first.is_trivial() && !opts.exhaustive_negation {
        dduf_obs::record("downward.translate", "retry", &[("retries", 1)]);
        let retry_opts = DownwardOptions {
            exhaustive_negation: true,
            ..opts.clone()
        };
        return interpret_once(db, old, request, &retry_opts);
    }
    Ok(first)
}

fn interpret_once(
    db: &Database,
    old: &Interpretation,
    request: &Request,
    opts: &DownwardOptions,
) -> Result<DownwardResult> {
    let timer = dduf_obs::timer();
    let mut domain = opts.domain.clone().unwrap_or_else(|| Domain::active(db));
    domain.extend(request.constants());
    let mut tr = Translator::new(StateView::new(db, old), domain, opts);

    let mut total = nf::verum();
    let mut already = Vec::new();

    for item in &request.items {
        let kind = item.event.kind;
        let pred = item.event.pred();
        let groundings = tr.groundings(pred, &item.event.atom.terms, &Bindings::new())?;
        if item.achieve {
            // Disjunction over groundings, each conjoined with the context
            // built so far (distributivity keeps this equivalent to
            // building the item NF first).
            let mut acc = nf::falsum();
            let mut satisfied_trivially = false;
            for g in &groundings {
                let tuple =
                    ground_terms(&item.event.atom.terms, g).expect("groundings bind all variables");
                let e = GroundEvent::new(kind, pred, tuple.clone());
                if !tr.event_possible(&e) {
                    // Already in the desired state. For a fully-ground
                    // request this satisfies the item (footnote 1); for an
                    // open request this grounding is just not a candidate.
                    if item.event.atom.is_ground() {
                        already.push(e);
                        satisfied_trivially = true;
                    }
                    continue;
                }
                let combined = tr.apply_pos_event(kind, pred, &tuple, 0, &total)?;
                acc = nf::union(acc, combined);
                if acc.len() > opts.max_alternatives {
                    return Err(Error::LimitExceeded {
                        what: "alternatives",
                        limit: opts.max_alternatives,
                    });
                }
            }
            if !satisfied_trivially {
                total = acc;
            }
        } else {
            // Conjunction over groundings: none of the instances may occur.
            for g in &groundings {
                let tuple =
                    ground_terms(&item.event.atom.terms, g).expect("groundings bind all variables");
                total = tr.apply_neg_event(kind, pred, &tuple, 0, &total)?;
                if total.is_empty() {
                    break;
                }
            }
        }
        if total.is_empty() {
            break;
        }
    }

    let before_prune = total.len() as u64;
    let mut pruned = nf::prune_subsumed(total);
    pruned.sort();

    if dduf_obs::enabled() {
        let stats = tr.stats();
        dduf_obs::record_timed(
            "downward.translate",
            "",
            &[
                ("nodes", stats.nodes),
                ("branches", stats.branches),
                ("conjuncts", stats.conjuncts),
                ("groundings", stats.groundings),
                ("alternatives", pruned.len() as u64),
                ("pruned", before_prune - pruned.len() as u64),
                ("already", already.len() as u64),
            ],
            timer.elapsed_us(),
        );
    }

    Ok(DownwardResult {
        alternatives: pruned
            .into_iter()
            .map(|a| Alternative {
                to_do: a.pos.into_iter().collect(),
                must_not: a.neg.into_iter().collect(),
            })
            .collect(),
        already_satisfied: already,
    })
}

/// Verifies an alternative by *replaying it upward*: the oracle
/// ([`semantic::interpret`]) computes the events its `to_do` transaction
/// induces, and every achieve-item must hold in the new state and every
/// prevent-item must have induced no event. This is the round-trip of the
/// paper's intro figure (downward then upward).
pub fn verify(
    db: &Database,
    old: &Interpretation,
    request: &Request,
    alt: &Alternative,
) -> Result<bool> {
    let txn = alt.to_transaction(db)?;
    let up = semantic::interpret(db, old, &txn)?;
    let old_view = StateView::new(db, old);
    let events = |kind: EventKind, pred| {
        if db.program().is_derived(pred) {
            up.derived.relation(kind, pred)
        } else {
            up.base.relation(kind, pred)
        }
    };

    for item in &request.items {
        let pred = item.event.pred();
        let ok = match item.event.atom.as_tuple() {
            Some(t) => {
                let t = Tuple::from(t);
                let before = old_view.holds(pred, &t);
                let after = events(EventKind::Ins, pred).contains(&t)
                    || (before && !events(EventKind::Del, pred).contains(&t));
                match (item.achieve, item.event.kind) {
                    (true, EventKind::Ins) => after,
                    (true, EventKind::Del) => !after,
                    (false, EventKind::Ins) => !after || before,
                    (false, EventKind::Del) => !before || after,
                }
            }
            // Open achieve-item: some event tuple matching its terms
            // (equal constants, one value per repeated variable) must
            // have occurred; open prevent-item: none may have.
            None => {
                let terms = &item.event.atom.terms;
                let matched = events(item.event.kind, pred)
                    .iter()
                    .any(|t| match_tuple(terms, t, &Bindings::new()).is_some());
                matched == item.achieve
            }
        };
        if !ok {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::ast::{Const, Pred, Term};
    use dduf_datalog::eval::materialize;
    use dduf_datalog::parser::parse_database;
    use dduf_datalog::storage::tuple::syms;

    fn example_db() -> Database {
        parse_database(
            "q(a). q(b). r(b).
             p(X) :- q(X), not r(X).",
        )
        .unwrap()
    }

    fn employment_db() -> Database {
        parse_database(
            "la(dolors). u_benefit(dolors).
             unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).",
        )
        .unwrap()
    }

    /// Example 4.2: requesting ins P(B) yields exactly
    /// `{del R(B)}` avoiding `del Q(B)`.
    #[test]
    fn example_4_2() {
        let db = example_db();
        let req = Request::new().achieve(EventKind::Ins, Atom::ground("p", vec![Const::sym("b")]));
        let res = interpret(&db, &req, &DownwardOptions::default()).unwrap();
        assert_eq!(res.alternatives.len(), 1);
        let alt = &res.alternatives[0];
        assert_eq!(alt.to_do.to_string(), "{-r(b)}");
        assert_eq!(alt.must_not.to_string(), "{-q(b)}");
        assert!(res.already_satisfied.is_empty());
    }

    /// Example 5.2: requesting del Unemp(Dolors) yields
    /// T1 = {del La(Dolors)} and T2 = {ins Works(Dolors)}.
    #[test]
    fn example_5_2() {
        let db = employment_db();
        let req = Request::new().achieve(
            EventKind::Del,
            Atom::ground("unemp", vec![Const::sym("dolors")]),
        );
        let res = interpret(&db, &req, &DownwardOptions::default()).unwrap();
        let shown: Vec<String> = res
            .alternatives
            .iter()
            .map(|a| a.to_do.to_string())
            .collect();
        assert_eq!(shown.len(), 2);
        assert!(shown.contains(&"{+works(dolors)}".to_string()), "{shown:?}");
        assert!(shown.contains(&"{-la(dolors)}".to_string()), "{shown:?}");
    }

    /// Example 5.3: downward of {ins La(Maria), ¬ins Unemp(Maria)} yields
    /// exactly T = {ins La(Maria), ins Works(Maria)}.
    #[test]
    fn example_5_3() {
        let db = employment_db();
        let req = Request::new()
            .achieve(
                EventKind::Ins,
                Atom::ground("la", vec![Const::sym("maria")]),
            )
            .prevent(
                EventKind::Ins,
                Atom::ground("unemp", vec![Const::sym("maria")]),
            );
        let res = interpret(&db, &req, &DownwardOptions::default()).unwrap();
        assert_eq!(res.alternatives.len(), 1);
        let alt = &res.alternatives[0];
        assert_eq!(alt.to_do.to_string(), "{+la(maria), +works(maria)}");
    }

    #[test]
    fn already_satisfied_request() {
        let db = example_db();
        // p(a) already holds (q(a), not r(a)).
        let req = Request::new().achieve(EventKind::Ins, Atom::ground("p", vec![Const::sym("a")]));
        let res = interpret(&db, &req, &DownwardOptions::default()).unwrap();
        assert_eq!(res.already_satisfied.len(), 1);
        assert!(res.is_trivial());
    }

    #[test]
    fn impossible_request() {
        // No rules derive v; inserting it is impossible.
        let db = parse_database("#view v/1. q(a). p(X) :- q(X).").unwrap();
        let req = Request::new().achieve(EventKind::Ins, Atom::ground("v", vec![Const::sym("a")]));
        let res = interpret(&db, &req, &DownwardOptions::default()).unwrap();
        assert!(res.is_impossible());
    }

    #[test]
    fn open_request_enumerates_witnesses() {
        // View validation: find some X with a translation for ins p(X).
        let db = example_db();
        let req = Request::new().achieve(
            EventKind::Ins,
            Atom::new("p", vec![dduf_datalog::ast::Term::var("X")]),
        );
        let res = interpret(&db, &req, &DownwardOptions::default()).unwrap();
        // p(b) can be inserted by deleting r(b); p(a) already holds (not a
        // candidate because ins p(a) is not a possible event).
        assert!(!res.alternatives.is_empty());
        assert!(res.alternatives.iter().any(|a| a
            .to_do
            .contains(&GroundEvent::del(Pred::new("r", 1), syms(&["b"])))));
    }

    #[test]
    fn constant_head_rule_downward() {
        let db = parse_database(
            "la(dolors).
             alarm(red) :- la(X), not works(X).",
        )
        .unwrap();
        // Deactivate the alarm: employ or remove every jobless person.
        let req = Request::new().achieve(
            EventKind::Del,
            Atom::ground("alarm", vec![Const::sym("red")]),
        );
        let res = interpret(&db, &req, &DownwardOptions::default()).unwrap();
        let shown: Vec<String> = res
            .alternatives
            .iter()
            .map(|a| a.to_do.to_string())
            .collect();
        assert!(shown.contains(&"{+works(dolors)}".to_string()), "{shown:?}");
        assert!(shown.contains(&"{-la(dolors)}".to_string()), "{shown:?}");
        // A request for a non-matching constant is impossible.
        let req2 = Request::new().achieve(
            EventKind::Ins,
            Atom::ground("alarm", vec![Const::sym("blue")]),
        );
        let res2 = interpret(&db, &req2, &DownwardOptions::default()).unwrap();
        assert!(res2.is_impossible());
    }

    #[test]
    fn recursive_definition_rejected() {
        let db = parse_database(
            "e(a, b).
             tc(X, Y) :- e(X, Y).
             tc(X, Y) :- e(X, Z), tc(Z, Y).",
        )
        .unwrap();
        let req = Request::new().achieve(
            EventKind::Ins,
            Atom::ground("tc", vec![Const::sym("b"), Const::sym("c")]),
        );
        let err = interpret(&db, &req, &DownwardOptions::default()).unwrap_err();
        assert!(matches!(err, Error::RecursiveDownward(_)));
    }

    #[test]
    fn all_alternatives_verify_by_upward_replay() {
        let db = employment_db();
        let old = materialize(&db).unwrap();
        let req = Request::new().achieve(
            EventKind::Del,
            Atom::ground("unemp", vec![Const::sym("dolors")]),
        );
        let res = interpret_with(&db, &old, &req, &DownwardOptions::default()).unwrap();
        for alt in &res.alternatives {
            assert!(verify(&db, &old, &req, alt).unwrap(), "{alt}");
        }
    }

    #[test]
    fn two_level_view_descends() {
        // ic1 :- unemp(X), not u_benefit(X).  Achieving ins ic1 requires a
        // new unemployed person without benefit, or removing dolors'
        // benefit.
        let db = employment_db();
        let req = Request::new().achieve(EventKind::Ins, Atom::new("ic1", vec![]));
        let res = interpret(&db, &req, &DownwardOptions::default()).unwrap();
        assert!(!res.alternatives.is_empty());
        // Simplest: delete u_benefit(dolors).
        assert!(
            res.alternatives
                .iter()
                .any(|a| a.to_do.to_string() == "{-u_benefit(dolors)}"),
            "{:?}",
            res.alternatives
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
        );
        let old = materialize(&db).unwrap();
        for alt in &res.alternatives {
            assert!(verify(&db, &old, &req, alt).unwrap(), "{alt}");
        }
    }

    /// A negated old literal whose variable no positive literal binds is
    /// read as ¬∃ over the old state. Allowedness (§2) rules such a rule
    /// out of every program the engine accepts, so the old state is given
    /// by hand: `p = {b}`.
    #[test]
    fn open_negated_old_literal_is_not_exists() {
        use dduf_datalog::storage::relation::Relation;
        let db = parse_database("q(a). q(b). r(a, c). p(X) :- q(X), not r(X, Y).").unwrap();
        let mut old = Interpretation::default();
        let mut p = Relation::new();
        p.insert(syms(&["b"]));
        old.set(Pred::new("p", 1), p);
        let run = |kind, c: &str| -> Vec<String> {
            let req = Request::new().achieve(kind, Atom::ground("p", vec![Const::sym(c)]));
            let res = interpret_with(&db, &old, &req, &DownwardOptions::default()).unwrap();
            res.alternatives.iter().map(|a| a.to_string()).collect()
        };
        // ∃Y r(a, Y) holds, so p(a) needs r(a, c) gone.
        assert_eq!(run(EventKind::Ins, "a"), ["{-r(a, c)} avoiding {-q(a)}"]);
        assert_eq!(
            run(EventKind::Del, "b"),
            ["{+r(b, a)}", "{+r(b, b)}", "{+r(b, c)}", "{-q(b)}"]
        );
    }

    /// The alternative `{+q(x, y)}`.
    fn insert_q(x: &str, y: &str) -> Alternative {
        Alternative {
            to_do: [GroundEvent::ins(Pred::new("q", 2), syms(&[x, y]))]
                .into_iter()
                .collect(),
            must_not: EventStore::new(),
        }
    }

    /// An open item is met only by an event tuple that matches its
    /// constants: `{+q(d, e)}` inserts `v(d, e)`, not any `v(c, _)`.
    #[test]
    fn open_item_verifies_against_its_constants() {
        let db = parse_database("q(a, b). v(X, Y) :- q(X, Y).").unwrap();
        let old = materialize(&db).unwrap();
        let v_c = Atom::new("v", vec![Term::sym("c"), Term::var("Y")]);
        let want = Request::new().achieve(EventKind::Ins, v_c.clone());
        assert!(!verify(&db, &old, &want, &insert_q("d", "e")).unwrap());
        assert!(verify(&db, &old, &want, &insert_q("c", "e")).unwrap());
        // A prevent-item is violated only by a matching tuple.
        let avoid = Request::new().prevent(EventKind::Ins, v_c);
        assert!(verify(&db, &old, &avoid, &insert_q("d", "e")).unwrap());
        assert!(!verify(&db, &old, &avoid, &insert_q("c", "e")).unwrap());
    }

    /// A repeated variable asks for one value in both places: `+v(X, X)`
    /// is met by `v(d, d)` and not by `v(d, e)`.
    #[test]
    fn open_item_with_a_repeated_variable() {
        let db = parse_database("q(a, b). v(X, Y) :- q(X, Y).").unwrap();
        let old = materialize(&db).unwrap();
        let diag = Atom::new("v", vec![Term::var("X"), Term::var("X")]);
        let want = Request::new().achieve(EventKind::Ins, diag.clone());
        assert!(!verify(&db, &old, &want, &insert_q("d", "e")).unwrap());
        assert!(verify(&db, &old, &want, &insert_q("d", "d")).unwrap());
        let avoid = Request::new().prevent(EventKind::Ins, diag);
        assert!(verify(&db, &old, &avoid, &insert_q("d", "e")).unwrap());
        assert!(!verify(&db, &old, &avoid, &insert_q("d", "d")).unwrap());
    }
}
