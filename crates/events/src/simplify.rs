//! Simplification of transition and event rules.
//!
//! §3.3 notes the rules "can be intensively simplified, as described in
//! [Oli91, UO92, UO94]". This module implements the logic-level core of
//! those simplifications; each transformation is justified next to its
//! code. All transformations preserve the set of transitions that satisfy
//! the formula (they are equivalences under the event definitions (1)/(2)).

use crate::event::EventKind;
use crate::formula::{Conjunct, Dnf, TrLit};
use crate::transition::{TransitionBranch, TransitionRule};
use dduf_datalog::ast::Literal;

/// Simplifies one conjunct. Returns `None` if the conjunct is
/// unsatisfiable.
///
/// Sound transformations used (with `E` the event definitions (1)/(2)):
///
/// 1. *Duplicate elimination*: `L ∧ L ≡ L`.
/// 2. *Complement contradiction*: `L ∧ ¬L ≡ false` (same literal with both
///    signs, for old and event literals alike).
/// 3. *Ins/Del exclusion*: `ins Q(t̄) ∧ del Q(t̄) ≡ false` — by (1)/(2) the
///    former requires `¬Q°(t̄)`, the latter `Q°(t̄)`.
/// 4. *Event/old contradiction*: `ins Q(t̄) ∧ Q°(t̄) ≡ false` and
///    `del Q(t̄) ∧ ¬Q°(t̄) ≡ false` — immediate from (1)/(2).
/// 5. *Implied-old elimination*: given `ins Q(t̄)`, the literal `¬Q°(t̄)` is
///    implied and removable; given `del Q(t̄)`, `Q°(t̄)` is removable.
///
/// The checks are syntactic (identical argument term lists), so they are
/// sound also for non-ground conjuncts: identical terms denote the same
/// instances under every substitution.
pub fn simplify_conjunct(c: &Conjunct) -> Option<Conjunct> {
    let mut lits: Vec<TrLit> = Vec::with_capacity(c.0.len());
    for l in &c.0 {
        if !lits.contains(l) {
            lits.push(l.clone());
        }
    }

    // Rule 2: complement contradiction.
    for l in &lits {
        if lits.contains(&l.negated()) {
            return None;
        }
    }

    // Rules 3/4: cross-literal contradictions via positive events.
    for l in &lits {
        if let TrLit::Event {
            positive: true,
            event,
        } = l
        {
            let opposite = TrLit::Event {
                positive: true,
                event: crate::event::EventAtom::new(event.kind.flipped(), event.atom.clone()),
            };
            if lits.contains(&opposite) {
                return None; // rule 3
            }
            let contradicting_old = match event.kind {
                EventKind::Ins => TrLit::Old(Literal::pos(event.atom.clone())),
                EventKind::Del => TrLit::Old(Literal::neg(event.atom.clone())),
            };
            if lits.contains(&contradicting_old) {
                return None; // rule 4
            }
        }
    }

    // Rule 5: drop old literals implied by a positive event.
    let implied: Vec<TrLit> = lits
        .iter()
        .filter_map(|l| match l {
            TrLit::Event {
                positive: true,
                event,
            } => Some(match event.kind {
                EventKind::Ins => TrLit::Old(Literal::neg(event.atom.clone())),
                EventKind::Del => TrLit::Old(Literal::pos(event.atom.clone())),
            }),
            _ => None,
        })
        .collect();
    lits.retain(|l| !implied.contains(l));

    Some(Conjunct(lits))
}

/// Above this disjunct count the (quadratic) subsumption pass of
/// [`simplify_dnf`] is skipped; conjunct-level simplification and
/// deduplication still run. Rule bodies long enough to exceed this are
/// pathological (2^10 disjuncts ≈ a 10-literal body).
const SUBSUMPTION_LIMIT: usize = 1024;

/// Simplifies a DNF: simplifies each conjunct, drops unsatisfiable ones,
/// deduplicates, and removes subsumed disjuncts (`c₁ ∨ c₂ ≡ c₁` when
/// `c₁ ⊆ c₂`, i.e. every literal of `c₁` occurs in `c₂`). The subsumption
/// pass is quadratic and is skipped above 1024 disjuncts.
pub fn simplify_dnf(dnf: &Dnf) -> Dnf {
    let mut seen = std::collections::BTreeSet::new();
    let mut out: Vec<Conjunct> = Vec::new();
    for c in &dnf.0 {
        if let Some(s) = simplify_conjunct(c) {
            if seen.insert(s.clone()) {
                out.push(s);
            }
        }
    }
    if out.len() > SUBSUMPTION_LIMIT {
        return Dnf(out);
    }
    // Subsumption: drop any conjunct that is a superset of another.
    let subsumed: Vec<bool> = out
        .iter()
        .enumerate()
        .map(|(i, c)| {
            out.iter().enumerate().any(|(j, d)| {
                i != j
                    && d.0.len() <= c.0.len()
                    && d.0.iter().all(|l| c.0.contains(l))
                    && !(d.0.len() == c.0.len() && j > i) // keep the first of equals
            })
        })
        .collect();
    Dnf(out
        .into_iter()
        .zip(subsumed)
        .filter_map(|(c, s)| (!s).then_some(c))
        .collect())
}

/// Simplifies every branch of a transition rule.
pub fn simplify_transition(tr: &TransitionRule) -> TransitionRule {
    TransitionRule {
        pred: tr.pred,
        branches: tr
            .branches
            .iter()
            .map(|b| TransitionBranch {
                head: b.head.clone(),
                dnf: simplify_dnf(&b.dnf),
                source: b.source.clone(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::ast::{Atom, Term};

    fn atom(name: &str, vars: &[&str]) -> Atom {
        Atom::new(name, vars.iter().map(|v| Term::var(v)).collect())
    }

    #[test]
    fn duplicate_literals_removed() {
        let c = Conjunct(vec![
            TrLit::old_pos(atom("q", &["X"])),
            TrLit::old_pos(atom("q", &["X"])),
        ]);
        assert_eq!(simplify_conjunct(&c).unwrap().0.len(), 1);
    }

    #[test]
    fn complement_contradiction_dropped() {
        let c = Conjunct(vec![
            TrLit::event(EventKind::Ins, atom("q", &["X"])),
            TrLit::not_event(EventKind::Ins, atom("q", &["X"])),
        ]);
        assert!(simplify_conjunct(&c).is_none());
    }

    #[test]
    fn ins_and_del_same_atom_contradict() {
        let c = Conjunct(vec![
            TrLit::event(EventKind::Ins, atom("q", &["X"])),
            TrLit::event(EventKind::Del, atom("q", &["X"])),
        ]);
        assert!(simplify_conjunct(&c).is_none());
    }

    #[test]
    fn event_old_contradiction() {
        // ins q(X) ∧ q°(X) is false.
        let c = Conjunct(vec![
            TrLit::event(EventKind::Ins, atom("q", &["X"])),
            TrLit::old_pos(atom("q", &["X"])),
        ]);
        assert!(simplify_conjunct(&c).is_none());
        // del q(X) ∧ ¬q°(X) is false.
        let c = Conjunct(vec![
            TrLit::event(EventKind::Del, atom("q", &["X"])),
            TrLit::old_neg(atom("q", &["X"])),
        ]);
        assert!(simplify_conjunct(&c).is_none());
    }

    #[test]
    fn implied_old_literal_removed() {
        // ins q(X) ∧ ¬q°(X)  ≡  ins q(X)
        let c = Conjunct(vec![
            TrLit::event(EventKind::Ins, atom("q", &["X"])),
            TrLit::old_neg(atom("q", &["X"])),
        ]);
        let s = simplify_conjunct(&c).unwrap();
        assert_eq!(s.0.len(), 1);
        assert!(s.0[0].is_positive_event());
    }

    #[test]
    fn distinct_terms_not_confused() {
        // ins q(X) ∧ q°(Y) is satisfiable (different instances).
        let c = Conjunct(vec![
            TrLit::event(EventKind::Ins, atom("q", &["X"])),
            TrLit::old_pos(atom("q", &["Y"])),
        ]);
        assert_eq!(simplify_conjunct(&c).unwrap().0.len(), 2);
    }

    #[test]
    fn dnf_subsumption() {
        // (a°) ∨ (a° ∧ ins b)  ≡  (a°)
        let dnf = Dnf(vec![
            Conjunct(vec![TrLit::old_pos(atom("a", &[]))]),
            Conjunct(vec![
                TrLit::old_pos(atom("a", &[])),
                TrLit::event(EventKind::Ins, atom("b", &[])),
            ]),
        ]);
        let s = simplify_dnf(&dnf);
        assert_eq!(s.len(), 1);
        assert_eq!(s.0[0].0.len(), 1);
    }

    #[test]
    fn dnf_duplicate_conjuncts_merged() {
        let c = Conjunct(vec![TrLit::old_pos(atom("a", &[]))]);
        let s = simplify_dnf(&Dnf(vec![c.clone(), c]));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn simplify_transition_keeps_heads() {
        use dduf_datalog::ast::{Literal, Rule};
        use dduf_datalog::schema::Program;
        let mut b = Program::builder();
        b.rule(Rule::new(
            atom("p", &["X"]),
            vec![Literal::pos(atom("q", &["X"]))],
        ));
        let prog = b.build().unwrap();
        let tr =
            crate::transition::TransitionRule::build(&prog, dduf_datalog::ast::Pred::new("p", 1));
        let s = simplify_transition(&tr);
        assert_eq!(s.branches[0].head, tr.branches[0].head);
        assert!(s.disjunct_count() <= tr.disjunct_count());
    }
}
