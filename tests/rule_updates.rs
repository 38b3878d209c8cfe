//! Rule updates (§5.3, closing paragraph) against the semantic oracle:
//! adding and removing rules and constraints re-evaluates only the
//! components the update reaches, and what it reports and leaves behind
//! is what rematerializing from scratch and diffing says.
//!
//! Deterministic fuzz loops over the in-tree PRNG, on the random programs
//! of the differential suite (recursion included), with random updates
//! between random commits.

mod common;

use common::{gen_churn_txn, gen_txn, RandProgram, RecProgram};
use dduf::core::rng::Rng;
use dduf::core::upward::maintain::Strategy;
use dduf::core::upward::semantic;
use dduf::datalog::pretty;
use dduf::prelude::*;

const VARS: [&str; 3] = ["X", "Y", "Z"];

fn parse_rule(src: &str) -> Rule {
    let out = dduf::datalog::parser::parse_program(src).unwrap();
    out.program.rules()[0].clone()
}

/// `p(V, …)` over variables drawn from `vars`.
fn lit(rng: &mut Rng, p: Pred, vars: &[&str]) -> String {
    let terms: Vec<&str> = (0..p.arity).map(|_| *rng.choose(vars)).collect();
    format!("{}({})", p.name.as_str(), terms.join(", "))
}

/// A random allowed body over the predicates of `program` that are not
/// constraints': one or two positive literals, and maybe a negated one
/// over their variables. Returns the body and the variables it binds.
fn gen_body(rng: &mut Rng, program: &Program) -> (String, Vec<&'static str>) {
    let preds: Vec<Pred> = program
        .predicates()
        .filter(|&(p, role)| p.arity > 0 && role != Role::Derived(DerivedRole::Ic))
        .map(|(p, _)| p)
        .collect();
    let mut lits = Vec::new();
    for _ in 0..1 + rng.usize(2) {
        let p = *rng.choose(&preds);
        lits.push(lit(rng, p, &VARS));
    }
    let bound: Vec<&str> = VARS
        .into_iter()
        .filter(|v| lits.iter().any(|l| l.contains(v)))
        .collect();
    if rng.chance(0.4) {
        let p = *rng.choose(&preds);
        lits.push(format!("not {}", lit(rng, p, &bound)));
    }
    (lits.join(", "), bound)
}

/// A random rule for a derived predicate of `program` or a fresh one.
fn gen_rule(rng: &mut Rng, program: &Program, fresh: &mut usize) -> Rule {
    let (body, bound) = gen_body(rng, program);
    let heads: Vec<Pred> = program
        .derived_with_role(DerivedRole::View)
        .into_iter()
        .filter(|p| p.arity > 0)
        .collect();
    let head = if heads.is_empty() || rng.chance(0.3) {
        *fresh += 1;
        Pred::new(&format!("w{fresh}"), 1 + rng.usize(2))
    } else {
        *rng.choose(&heads)
    };
    parse_rule(&format!("{} :- {body}.", lit(rng, head, &bound)))
}

/// One random rule update on `proc`: add or remove a rule, add or remove
/// a constraint.
fn update(rng: &mut Rng, proc: &mut UpdateProcessor, fresh: &mut usize) -> Result<EvolutionResult> {
    let program = proc.database().program().clone();
    let global = program.global_ic();
    let rules: Vec<&Rule> = program
        .rules()
        .iter()
        .filter(|r| Some(r.head.pred) != global)
        .collect();
    let constraints: Vec<Pred> = program
        .derived_with_role(DerivedRole::Ic)
        .into_iter()
        .filter(|&p| Some(p) != global && !program.rules_for(p).is_empty())
        .collect();
    match rng.usize(4) {
        1 if !rules.is_empty() => {
            let rule = *rng.choose(&rules);
            proc.remove_rule(rule)
        }
        2 => {
            let (body, _) = gen_body(rng, &program);
            let body = parse_rule(&format!("tmp :- {body}.")).body;
            proc.add_constraint(body).map(|(res, _)| res)
        }
        3 if !constraints.is_empty() => proc.remove_constraint(*rng.choose(&constraints)),
        _ => proc.add_rule(gen_rule(rng, &program, fresh)),
    }
}

/// After every accepted update: the induced events are the diff of the
/// materializations before and after, the engine holds the new
/// materialization, its counts are a fresh engine's and its ranks are
/// sound. A refused one (a rule that breaks stratification) changes
/// nothing. Every update is followed by a random commit checked against
/// the oracle.
#[test]
fn rule_updates_match_rematerializing() {
    let mut rng = Rng::new(0x5E1F);
    let (mut accepted, mut refused, mut kept, mut recursive) = (0, 0, 0, 0);
    for case in 0..64 {
        let (source, txn_of): (String, fn(&mut Rng, &Database) -> Transaction) = if case % 2 == 0 {
            (RandProgram::gen(&mut rng).to_source(), gen_txn)
        } else {
            (RecProgram::gen(&mut rng).to_source(), gen_churn_txn)
        };
        let mut proc = UpdateProcessor::new(parse_database(&source).unwrap()).unwrap();
        let mut fresh = 0;
        for step in 0..6 {
            let label = format!("case {case} step {step}:\n{source}");
            let before_db = proc.database().clone();
            let before = materialize(&before_db).unwrap();
            let (outcome, report) = dduf::obs::capture(|| update(&mut rng, &mut proc, &mut fresh));
            let db = proc.database();
            match outcome {
                Err(e) => {
                    refused += 1;
                    assert!(matches!(e, Error::Datalog(_)), "{label}: {e}");
                    assert_eq!(
                        pretty::database(db),
                        pretty::database(&before_db),
                        "{label}"
                    );
                    assert_eq!(proc.interpretation(), &before, "{label}");
                }
                Ok(res) => {
                    accepted += 1;
                    kept += report.counter("eval.materialize", "", "skipped");
                    let after = materialize(db).unwrap();
                    let program = pretty::program(db.program());
                    let expected = semantic::diff_interpretations(db, &before, &after);
                    assert_eq!(res.induced, expected, "{label}\nafter:\n{program}");
                    assert_eq!(proc.interpretation(), &after, "{label}\nafter:\n{program}");
                    let engine = proc.maintenance().unwrap();
                    let rebuilt = MaintenanceEngine::new(db).unwrap();
                    assert_eq!(engine.counts(), rebuilt.counts(), "{label}\n{program}");
                    engine.check_ranks(db).unwrap();
                }
            }
            let db = proc.database().clone();
            recursive += db
                .program()
                .predicates()
                .filter(|&(p, _)| proc.maintenance().unwrap().strategy(p) == Some(Strategy::DRed))
                .count();
            let txn = txn_of(&mut rng, &db);
            let expected = semantic::interpret(&db, &materialize(&db).unwrap(), &txn).unwrap();
            assert_eq!(
                proc.commit(&txn).unwrap(),
                expected,
                "{label}: {}",
                txn.events()
            );
        }
    }
    // The loop reached every path: updates accepted and refused, units
    // kept, recursive components maintained across updates.
    assert!(
        accepted > 200 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
    assert!(
        kept > 0 && recursive > 0,
        "{kept} kept, {recursive} recursive"
    );
}

/// A second rule for the monitored `goal_reached` of the attack graph
/// re-evaluates `goal_reached` and nothing else: the recursive
/// `exec_code` and the `exploitable` below it keep their extensions.
#[test]
fn a_second_goal_rule_evaluates_only_its_component() {
    let topology = common::topology(common::ATTACK_GRAPH, 60);
    let mut proc = UpdateProcessor::new(topology.db).unwrap();
    let goal = Pred::new("goal_reached", 2);
    let rule = parse_rule("goal_reached(A, H) :- exec_code(A, H), vuln(H, V).");
    let (res, report) = dduf::obs::capture(|| proc.add_rule(rule).unwrap());
    assert_eq!(report.count("eval.scc", "goal_reached/2"), 1);
    for label in ["exec_code/2", "exploitable/1"] {
        assert_eq!(
            report.count("eval.scc", label),
            0,
            "{label} was re-evaluated"
        );
    }
    assert_eq!(report.counter("eval.materialize", "", "components"), 1);
    assert_eq!(res.rule_changes, vec![EventRuleChange::Rebuilt(goal)]);
    assert!(!res.induced.is_empty());
    assert!(res
        .induced
        .iter()
        .all(|e| e.pred == goal && e.kind == EventKind::Ins));
    assert_eq!(
        proc.interpretation(),
        &materialize(proc.database()).unwrap()
    );
}
