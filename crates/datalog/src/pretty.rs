//! Pretty-printing of programs, databases and materialized states in the
//! surface syntax (parseable round-trip output).

use crate::ast::{Const, Pred};
use crate::eval::{Interpretation, StateView};
use crate::schema::{DerivedRole, Program, Role};
use crate::storage::database::Database;
use crate::storage::relation::Relation;
use std::fmt::{self, Write};

/// Renders a program in surface syntax (directives, then rules).
pub fn program(p: &Program) -> String {
    let mut out = String::new();
    if !p.declared_domain().is_empty() {
        let consts: Vec<String> = p.declared_domain().iter().map(|c| c.to_string()).collect();
        let _ = writeln!(out, "#domain {{{}}}.", consts.join(", "));
    }
    for (pred, dom) in p.pred_domains() {
        let consts: Vec<String> = dom.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(
            out,
            "#domain {}/{} {{{}}}.",
            pred.name,
            pred.arity,
            consts.join(", ")
        );
    }
    for (pred, role) in p.predicates() {
        let kw = match role {
            Role::Base => continue, // base is the default for body-only preds
            Role::Derived(DerivedRole::View) => "view",
            Role::Derived(DerivedRole::Ic) => "ic",
            Role::Derived(DerivedRole::Cond) => "cond",
        };
        let _ = writeln!(out, "#{kw} {}/{}.", pred.name, pred.arity);
    }
    for r in p.rules() {
        let _ = writeln!(out, "{r}.");
    }
    out
}

/// Renders a complete database (directives, rules, then facts) in a form
/// that [`crate::parser::parse_database`] reads back to an equal database.
pub fn database(db: &Database) -> String {
    format!("{}{}", program(db.program()), facts(db))
}

/// Writes the ground atom `pred(c1, ..., cn)` — what the tuple's
/// [`to_atom`](crate::storage::tuple::Tuple::to_atom) displays, without
/// building the atom.
pub fn write_fact(out: &mut impl Write, pred: Pred, tuple: &[Const]) -> fmt::Result {
    out.write_str(pred.name.as_str())?;
    for (i, c) in tuple.iter().enumerate() {
        out.write_str(if i == 0 { "(" } else { ", " })?;
        write!(out, "{c}")?;
    }
    if !tuple.is_empty() {
        out.write_char(')')?;
    }
    Ok(())
}

/// Writes one line per tuple of `rel`: the fact, `.`, then `suffix`.
fn write_lines(out: &mut String, pred: Pred, rel: &Relation, suffix: &str) {
    for t in rel.iter() {
        let _ = write_fact(out, pred, t);
        out.push('.');
        out.push_str(suffix);
        out.push('\n');
    }
}

/// Renders the extensional facts of a database.
pub fn facts(db: &Database) -> String {
    let mut out = String::new();
    for pred in db.extensional_predicates() {
        write_lines(&mut out, pred, db.relation(pred), "");
    }
    out
}

/// Renders the derived extensions of a materialized state.
pub fn derived(interp: &Interpretation) -> String {
    let mut out = String::new();
    for (pred, rel) in interp.iter() {
        write_lines(&mut out, pred, rel, "");
    }
    out
}

/// Renders a full state (facts + derived facts), derived marked with `%=`.
pub fn state(view: StateView<'_>) -> String {
    let mut out = facts(view.db);
    for (pred, rel) in view.interp.iter() {
        write_lines(&mut out, pred, rel, " %= derived");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::materialize;
    use crate::parser::parse_database;

    #[test]
    fn program_round_trips_through_parser() {
        let src = "la(dolors). u_benefit(dolors).
                   unemp(X) :- la(X), not works(X).
                   :- unemp(X), not u_benefit(X).";
        let db = parse_database(src).unwrap();
        let printed = format!("{}{}", program(db.program()), facts(&db));
        let db2 = parse_database(&printed).unwrap();
        assert_eq!(db.fact_count(), db2.fact_count());
        assert_eq!(db.program().rules().len(), db2.program().rules().len());
    }

    #[test]
    fn database_round_trips() {
        let src = "#domain la/1 {ana, ben}. #domain {z}.
                   la(ana).
                   unemp(X) :- la(X), not works(X).
                   :- unemp(X), not u_benefit(X).";
        let db1 = parse_database(src).unwrap();
        let printed = database(&db1);
        let db2 = parse_database(&printed).unwrap();
        assert_eq!(database(&db2), printed);
        assert_eq!(db1.fact_count(), db2.fact_count());
        assert_eq!(
            db1.program().pred_domain(crate::ast::Pred::new("la", 1)),
            db2.program().pred_domain(crate::ast::Pred::new("la", 1))
        );
    }

    #[test]
    fn derived_facts_listed() {
        let db = parse_database("la(a). unemp(X) :- la(X), not works(X).").unwrap();
        let m = materialize(&db).unwrap();
        assert!(derived(&m).contains("unemp(a)."));
        assert!(state(StateView::new(&db, &m)).contains("la(a)."));
    }
}
