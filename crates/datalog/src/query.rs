//! Query answering over a materialized state.
//!
//! Old-database literals in the event rules "correspond to a query that must
//! be performed in the current state of the database" (§4.1). This module
//! is that query facility: match an atom against a [`StateView`].

use crate::ast::{Atom, Literal, Pred};
use crate::error::{Error, ParseError, Span};
use crate::eval::join::{Bindings, JoinStats};
use crate::eval::plan::{eval_heads, eval_seeded, JoinPlan};
use crate::eval::StateView;
use crate::storage::relation::Relation;
use crate::storage::tuple::Tuple;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// All bindings satisfying `atom` in `state`.
pub fn query_atom(state: StateView<'_>, atom: &Atom) -> Vec<Bindings> {
    let lits = [Literal::pos(atom.clone())];
    let rel_of = |_: usize| -> &Relation { state.relation(atom.pred) };
    eval_seeded(&mut None, &lits, &rel_of, &Bindings::new())
}

/// All tuples of `atom`'s instantiations that hold in `state`.
pub fn answers(state: StateView<'_>, atom: &Atom) -> Vec<Tuple> {
    let lits = [Literal::pos(atom.clone())];
    let plan = JoinPlan::compile(&lits, &BTreeSet::new(), None);
    let rel_of = |_: usize| -> &Relation { state.relation(atom.pred) };
    eval_heads(&plan, &atom.terms, &rel_of, &mut JoinStats::default())
}

/// True iff the (possibly non-ground) atom has at least one instance in
/// `state`.
pub fn holds(state: StateView<'_>, atom: &Atom) -> bool {
    if let Some(t) = atom.as_tuple() {
        return state.holds(atom.pred, &t.into());
    }
    !query_atom(state, atom).is_empty()
}

/// The `:query <atom>` command of the shell and of the server: the
/// instances of one positive atom that hold in `state`, one per line in
/// ascending order, then `(N answer(s) via Materialized)` — or `via
/// Extensional` for a base predicate. A read of the state the writer
/// maintains: nothing is evaluated. Anything but one positive atom (a
/// negated one, a conjunction, nothing) is the usage error.
pub fn command(state: StateView<'_>, src: &str) -> Result<String, Error> {
    let usage = || {
        Error::Parse(ParseError {
            span: Span { line: 1, col: 1 },
            message: "usage: :query p(a, X)".into(),
        })
    };
    let src = src.trim().trim_end_matches('.');
    if src.is_empty() {
        return Err(usage());
    }
    let parsed = crate::parser::parse_program(&format!("query_tmp :- {src}."))?;
    let atom = match &parsed.program.rules()[0].body[..] {
        [lit] if lit.positive => &lit.atom,
        _ => return Err(usage()),
    };
    let mut tuples = answers(state, atom);
    tuples.sort_unstable();
    tuples.dedup();
    let mut text = String::new();
    for t in &tuples {
        let _ = writeln!(text, "{}", t.to_atom(atom.pred));
    }
    let path = if state.db.program().is_derived(atom.pred) {
        "Materialized"
    } else {
        "Extensional"
    };
    let _ = writeln!(text, "({} answer(s) via {path})", tuples.len());
    Ok(text)
}

/// The `:show [pred]` command of the shell and of the server: every fact
/// of `state`, or only those of the predicates named `pred`, one per line
/// — the extensional predicates first, then the non-empty derived ones,
/// each derived fact marked `%= derived`.
pub fn show(state: StateView<'_>, pred: &str) -> String {
    let mut preds: Vec<(Pred, bool)> = state
        .db
        .extensional_predicates()
        .map(|p| (p, false))
        .collect();
    preds.extend(
        state
            .interp
            .iter()
            .filter(|(_, r)| !r.is_empty())
            .map(|(p, _)| (p, true)),
    );
    let mut out = String::new();
    for (p, derived) in preds {
        if !pred.is_empty() && pred != p.name.as_str() {
            continue;
        }
        let mark = if derived { " %= derived" } else { "" };
        for t in state.relation(p).iter() {
            let _ = writeln!(out, "{}.{mark}", t.to_atom(p));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Const, Term};
    use crate::eval::materialize;
    use crate::parser::parse_database;
    use crate::storage::tuple::syms;

    fn setup() -> (
        crate::storage::database::Database,
        crate::eval::Interpretation,
    ) {
        let db = parse_database(
            "la(dolors). la(joan). works(joan).
             unemp(X) :- la(X), not works(X).",
        )
        .unwrap();
        let m = materialize(&db).unwrap();
        (db, m)
    }

    #[test]
    fn query_derived_predicate() {
        let (db, m) = setup();
        let state = StateView::new(&db, &m);
        let ans = answers(state, &Atom::new("unemp", vec![Term::var("X")]));
        assert_eq!(ans, vec![syms(&["dolors"])]);
    }

    #[test]
    fn ground_holds() {
        let (db, m) = setup();
        let state = StateView::new(&db, &m);
        assert!(holds(
            state,
            &Atom::ground("unemp", vec![Const::sym("dolors")])
        ));
        assert!(!holds(
            state,
            &Atom::ground("unemp", vec![Const::sym("joan")])
        ));
        assert!(holds(state, &Atom::ground("la", vec![Const::sym("joan")])));
    }

    #[test]
    fn open_query_on_base() {
        let (db, m) = setup();
        let state = StateView::new(&db, &m);
        let ans = answers(state, &Atom::new("la", vec![Term::var("X")]));
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn command_answers_from_the_state_and_names_its_source() {
        let (db, m) = setup();
        let state = StateView::new(&db, &m);
        assert_eq!(
            command(state, "unemp(X).").unwrap(),
            "unemp(dolors)\n(1 answer(s) via Materialized)\n"
        );
        // Tuple order follows symbol interning, which is the process's.
        let base = command(state, " la(X) ").unwrap();
        let mut lines: Vec<&str> = base.lines().collect();
        assert_eq!(lines.pop(), Some("(2 answer(s) via Extensional)"));
        lines.sort_unstable();
        assert_eq!(lines, ["la(dolors)", "la(joan)"]);
        assert_eq!(
            command(state, "unemp(joan)").unwrap(),
            "(0 answer(s) via Materialized)\n"
        );
    }
}
