//! Verification of the transition rules themselves (§3.2): for every
//! derived predicate `P` and candidate tuple `c̄`, the executable
//! transition rule `Pⁿ(c̄)` — old literals evaluated on the old state,
//! event literals on the transaction plus induced events — holds **iff**
//! `c̄` belongs to the materialized new state. Also: simplification
//! preserves this semantics.
//!
//! Deterministic fuzz loops over the in-tree PRNG (no proptest): fixed
//! seeds, same scenarios every run.

use dduf::core::rng::Rng;
use dduf::core::upward::semantic::new_state_holds;
use dduf::prelude::*;
use dduf_events::simplify::simplify_transition;
use dduf_events::transition::TransitionRule;
use std::fmt::Write as _;

const CONSTS: [&str; 3] = ["a", "b", "c"];
const BASES: [&str; 3] = ["b1", "b2", "b3"];

#[derive(Clone, Debug)]
struct Scenario {
    facts: Vec<Vec<usize>>,
    // one derived layer over bases + optionally a second over the first
    layer1: Vec<(usize, bool)>,
    layer2: Option<Vec<(usize, bool)>>, // preds: 0..3 bases, 3 = v1
    txn: Vec<(bool, usize, usize)>,
}

impl Scenario {
    fn gen(rng: &mut Rng) -> Scenario {
        let facts = (0..BASES.len())
            .map(|_| (0..rng.usize(4)).map(|_| rng.usize(CONSTS.len())).collect())
            .collect();
        let layer1 = (0..1 + rng.usize(3))
            .map(|_| (rng.usize(3), rng.bool()))
            .collect();
        let layer2 = rng.bool().then(|| {
            (0..1 + rng.usize(3))
                .map(|_| (rng.usize(4), rng.bool()))
                .collect()
        });
        let txn = (0..1 + rng.usize(4))
            .map(|_| (rng.bool(), rng.usize(BASES.len()), rng.usize(CONSTS.len())))
            .collect();
        Scenario {
            facts,
            layer1,
            layer2,
            txn,
        }
    }

    fn source(&self) -> String {
        let mut src = String::new();
        for b in BASES {
            let _ = writeln!(src, "#base {b}/1.");
        }
        for (i, cs) in self.facts.iter().enumerate() {
            for &c in cs {
                let _ = writeln!(src, "{}({}).", BASES[i], CONSTS[c]);
            }
        }
        let body1: Vec<String> = self
            .layer1
            .iter()
            .enumerate()
            .map(|(j, &(p, pos))| {
                let name = BASES[p % 3];
                if pos || j == 0 {
                    format!("{name}(X)")
                } else {
                    format!("not {name}(X)")
                }
            })
            .collect();
        let _ = writeln!(src, "v1(X) :- {}.", body1.join(", "));
        if let Some(l2) = &self.layer2 {
            let body2: Vec<String> = l2
                .iter()
                .enumerate()
                .map(|(j, &(p, pos))| {
                    let name = if p >= 3 { "v1" } else { BASES[p] };
                    if pos || j == 0 {
                        format!("{name}(X)")
                    } else {
                        format!("not {name}(X)")
                    }
                })
                .collect();
            let _ = writeln!(src, "v2(X) :- {}.", body2.join(", "));
        }
        src
    }
}

fn build(s: &Scenario) -> (Database, Transaction) {
    let db = parse_database(&s.source()).expect("scenario parses");
    let mut events = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for &(ins, p, c) in &s.txn {
        if seen.insert((p, c)) {
            let kind = if ins { EventKind::Ins } else { EventKind::Del };
            events.push(GroundEvent::new(
                kind,
                Pred::new(BASES[p], 1),
                Tuple::new(vec![Const::sym(CONSTS[c])]),
            ));
        }
    }
    let txn = Transaction::from_events(&db, events).expect("valid");
    (db, txn)
}

/// TR(c̄) ⟺ c̄ ∈ Pⁿ, for raw and simplified transition rules.
#[test]
fn transition_rule_matches_new_state() {
    let mut rng = Rng::new(0x7124);
    for case in 0..96 {
        let s = Scenario::gen(&mut rng);
        let (db, txn) = build(&s);
        let old = materialize(&db).unwrap();
        // The upward result supplies the event sets TR literals refer to.
        let engine = MaintenanceEngine::new(&db).unwrap();
        let up = engine.interpret_for(&db, &txn, None).unwrap();
        let mut all_events = up.base.clone();
        all_events.extend(&up.derived);
        let new = materialize(&txn.apply(&db)).unwrap();

        for (pred, _role) in db.program().predicates() {
            if !db.program().is_derived(pred) {
                continue;
            }
            let raw = TransitionRule::build(db.program(), pred);
            let simplified = simplify_transition(&raw);
            for c in CONSTS {
                let tuple = Tuple::new(vec![Const::sym(c)]);
                let expected = new.relation(pred).contains(&tuple);
                let via_raw = new_state_holds(&raw, &tuple, &db, &old, &all_events);
                let via_simplified = new_state_holds(&simplified, &tuple, &db, &old, &all_events);
                assert_eq!(
                    via_raw, expected,
                    "case {case}: raw TR of {pred} disagrees on {tuple}"
                );
                assert_eq!(
                    via_simplified, expected,
                    "case {case}: simplified TR of {pred} disagrees on {tuple}"
                );
            }
        }
    }
}

/// Goal-directed evaluation (magic sets, with its bottom-up fallback
/// under negation) agrees with full materialization on the same
/// randomized programs.
#[test]
fn goal_directed_matches_bottom_up() {
    let mut rng = Rng::new(0x70D0);
    for case in 0..96 {
        let s = Scenario::gen(&mut rng);
        let (db, _txn) = build(&s);
        let m = materialize(&db).unwrap();
        for (pred, _role) in db.program().predicates() {
            if !db.program().is_derived(pred) {
                continue;
            }
            for c in CONSTS {
                let tuple = Tuple::new(vec![Const::sym(c)]);
                let goal = tuple.to_atom(pred);
                assert_eq!(
                    !magic::query(&db, &goal).unwrap().tuples.is_empty(),
                    m.relation(pred).contains(&tuple),
                    "case {case}: goal-directed evaluation disagrees on {goal}"
                );
            }
        }
    }
}
