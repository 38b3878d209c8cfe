//! The formula language of transition rules: conjunctions and disjunctive
//! normal forms over *old-database literals* and *event literals* (§3.2).
//!
//! After the substitution of equivalences (3)/(4), a transition-rule body
//! contains only two kinds of literal:
//!
//! * **old literals** `Q°(t̄)` / `¬Q°(t̄)` — queries against the old state;
//! * **event literals** `ins Q(t̄)` / `del Q(t̄)` (possibly negated) — on a
//!   base predicate these query the transaction, on a derived predicate
//!   they refer to the induced events (§4.1/§4.2).
//!
//! New-state literals never appear: they were eliminated by the
//! substitution.

use crate::event::{EventAtom, EventKind};
use dduf_datalog::ast::{Literal, Pred, Term, Var};
use dduf_datalog::eval::join::JoinLit;
use std::fmt;

/// A literal of a transition-rule body.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TrLit {
    /// An old-database literal `Q°(t̄)` (positive) or `¬Q°(t̄)`.
    Old(Literal),
    /// An event literal, positive (`ins Q(t̄)` / `del Q(t̄)`) or negative
    /// (`¬ins Q(t̄)` / `¬del Q(t̄)`).
    Event {
        /// `false` for a negated event literal.
        positive: bool,
        /// The event atom.
        event: EventAtom,
    },
}

impl TrLit {
    /// A positive old literal.
    pub fn old_pos(atom: dduf_datalog::ast::Atom) -> TrLit {
        TrLit::Old(Literal::pos(atom))
    }

    /// A negative old literal.
    pub fn old_neg(atom: dduf_datalog::ast::Atom) -> TrLit {
        TrLit::Old(Literal::neg(atom))
    }

    /// A positive event literal.
    pub fn event(kind: EventKind, atom: dduf_datalog::ast::Atom) -> TrLit {
        TrLit::Event {
            positive: true,
            event: EventAtom::new(kind, atom),
        }
    }

    /// A negative event literal.
    pub fn not_event(kind: EventKind, atom: dduf_datalog::ast::Atom) -> TrLit {
        TrLit::Event {
            positive: false,
            event: EventAtom::new(kind, atom),
        }
    }

    /// The predicate the literal is about.
    pub fn pred(&self) -> Pred {
        match self {
            TrLit::Old(l) => l.atom.pred,
            TrLit::Event { event, .. } => event.pred(),
        }
    }

    /// The literal's argument terms.
    pub fn lit_terms(&self) -> &[Term] {
        match self {
            TrLit::Old(l) => &l.atom.terms,
            TrLit::Event { event, .. } => &event.atom.terms,
        }
    }

    /// Whether the literal occurs positively.
    pub fn is_positive(&self) -> bool {
        match self {
            TrLit::Old(l) => l.positive,
            TrLit::Event { positive, .. } => *positive,
        }
    }

    /// True iff this is an event literal (of either sign).
    pub fn is_event(&self) -> bool {
        matches!(self, TrLit::Event { .. })
    }

    /// True iff this is a *positive* event literal — the only kind that can
    /// drive a change (a conjunct without one cannot derive a new tuple;
    /// see `simplify`).
    pub fn is_positive_event(&self) -> bool {
        matches!(self, TrLit::Event { positive: true, .. })
    }

    /// The logical complement.
    pub fn negated(&self) -> TrLit {
        match self {
            TrLit::Old(l) => TrLit::Old(l.negated()),
            TrLit::Event { positive, event } => TrLit::Event {
                positive: !positive,
                event: event.clone(),
            },
        }
    }
}

impl JoinLit for TrLit {
    fn positive(&self) -> bool {
        self.is_positive()
    }
    fn terms(&self) -> &[Term] {
        self.lit_terms()
    }
}

impl fmt::Display for TrLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrLit::Old(l) => {
                if !l.positive {
                    write!(f, "not ")?;
                }
                write!(f, "{}ᵒ", l.atom.pred.name)?;
                fmt_args(f, &l.atom.terms)
            }
            TrLit::Event { positive, event } => {
                if !positive {
                    write!(f, "not ")?;
                }
                let kw = match event.kind {
                    EventKind::Ins => "ins",
                    EventKind::Del => "del",
                };
                write!(f, "{kw} {}", event.atom.pred.name)?;
                fmt_args(f, &event.atom.terms)
            }
        }
    }
}

fn fmt_args(f: &mut fmt::Formatter<'_>, terms: &[Term]) -> fmt::Result {
    if terms.is_empty() {
        return Ok(());
    }
    write!(f, "(")?;
    for (i, t) in terms.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{t}")?;
    }
    write!(f, ")")
}

/// A conjunction of transition literals (one disjunctand of a transition
/// rule body).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Conjunct(pub Vec<TrLit>);

impl Conjunct {
    /// The variables occurring in the conjunct, first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for lit in &self.0 {
            for t in lit.lit_terms() {
                if let Term::Var(v) = t {
                    if !out.contains(v) {
                        out.push(*v);
                    }
                }
            }
        }
        out
    }

    /// True iff some literal is a positive event literal.
    pub fn has_positive_event(&self) -> bool {
        self.0.iter().any(TrLit::is_positive_event)
    }

    /// True iff no literal is an event literal at all (an "all-old"
    /// disjunctand).
    pub fn is_event_free(&self) -> bool {
        !self.0.iter().any(TrLit::is_event)
    }
}

impl fmt::Display for Conjunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "true");
        }
        for (i, l) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

/// A disjunctive normal form over transition literals.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Dnf(pub Vec<Conjunct>);

impl Dnf {
    /// The always-false DNF.
    pub fn falsum() -> Dnf {
        Dnf(vec![])
    }

    /// The always-true DNF (one empty conjunct).
    pub fn verum() -> Dnf {
        Dnf(vec![Conjunct::default()])
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff no disjuncts.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "false");
        }
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "({c})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::ast::Atom;

    fn atom(name: &str, vars: &[&str]) -> Atom {
        Atom::new(name, vars.iter().map(|v| Term::var(v)).collect())
    }

    #[test]
    fn display_matches_paper_shape() {
        // Qᵒ(x) ∧ not del q(x) ∧ ins r(x)
        let c = Conjunct(vec![
            TrLit::old_pos(atom("q", &["X"])),
            TrLit::not_event(EventKind::Del, atom("q", &["X"])),
            TrLit::event(EventKind::Ins, atom("r", &["X"])),
        ]);
        assert_eq!(c.to_string(), "qᵒ(X) ∧ not del q(X) ∧ ins r(X)");
    }

    #[test]
    fn positive_event_detection() {
        let c = Conjunct(vec![
            TrLit::old_pos(atom("q", &["X"])),
            TrLit::not_event(EventKind::Del, atom("q", &["X"])),
        ]);
        assert!(!c.has_positive_event());
        assert!(!c.is_event_free());
        let c2 = Conjunct(vec![TrLit::old_pos(atom("q", &["X"]))]);
        assert!(c2.is_event_free());
    }

    #[test]
    fn negation_involutive() {
        let l = TrLit::event(EventKind::Del, atom("r", &["X"]));
        assert_eq!(l.negated().negated(), l);
        assert!(!l.negated().is_positive());
    }

    #[test]
    fn join_lit_impl() {
        use dduf_datalog::eval::join::JoinLit;
        let l = TrLit::not_event(EventKind::Ins, atom("r", &["X"]));
        assert!(!l.positive());
        assert_eq!(l.terms().len(), 1);
    }

    #[test]
    fn conjunct_vars() {
        let c = Conjunct(vec![
            TrLit::old_pos(atom("q", &["X", "Y"])),
            TrLit::event(EventKind::Ins, atom("r", &["Y", "Z"])),
        ]);
        let names: Vec<&str> = c.vars().iter().map(|v| v.name().as_str()).collect();
        assert_eq!(names, vec!["X", "Y", "Z"]);
    }

    #[test]
    fn dnf_display() {
        assert_eq!(Dnf::falsum().to_string(), "false");
        assert_eq!(Dnf::verum().to_string(), "(true)");
    }
}
