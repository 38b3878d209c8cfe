//! P-T4.1 — Operational reproduction of **Table 4.1** of the paper.
//!
//! Prints the classification matrix and then *executes* every cell on the
//! paper's employment database (augmented with a monitored condition),
//! demonstrating that each problem is solvable through the framework's
//! single pair of interpretations.
//!
//! Run with: `cargo run -p dduf-bench --bin table41`

use dduf_core::downward::Request;
use dduf_core::problems::condition_prevention::PreventKinds;
use dduf_core::problems::ic_checking::CheckOutcome;
use dduf_core::problems::ic_maintenance::MaintenanceOutcome;
use dduf_core::problems::repair::RepairOutcome;
use dduf_core::problems::TABLE_4_1;
use dduf_core::processor::UpdateProcessor;
use dduf_core::testkit;
use dduf_datalog::ast::{Atom, Const, Pred};
use dduf_datalog::parser::parse_database;
use dduf_datalog::schema::DerivedRole;
use dduf_events::event::{EventAtom, EventKind};

fn role_name(r: DerivedRole) -> &'static str {
    match r {
        DerivedRole::View => "View",
        DerivedRole::Ic => "Ic",
        DerivedRole::Cond => "Cond",
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Table 4.1 — A common framework for classifying deductive database");
    println!("updating problems (Teniente & Urpi, ICDE 1995)\n");
    println!(
        "{:<9} {:<12} {:<5} {:<55} api",
        "direction", "pattern", "role", "problem"
    );
    println!("{}", "-".repeat(130));
    for cell in TABLE_4_1 {
        println!(
            "{:<9} {:<12} {:<5} {:<55} {}",
            cell.direction.to_string(),
            cell.pattern.to_string(),
            role_name(cell.role),
            cell.problem,
            cell.api
        );
    }

    println!("\nExecuting every cell on the employment database:\n");
    // View + Cond + Ic roles in one schema.
    let proc = UpdateProcessor::new(testkit::employment_db_with_condition())?;
    let unemp = Pred::new("unemp", 1);
    let needy = Pred::new("needy", 1);
    let dolors = || Atom::ground("unemp", vec![Const::sym("dolors")]);

    let demo = |cell_idx: usize, outcome: String| {
        let cell = &TABLE_4_1[cell_idx];
        println!(
            "[{:>2}] {:<8} {:<11} {:<5} {:<45} -> {}",
            cell_idx + 1,
            cell.direction.to_string(),
            cell.pattern.to_string(),
            role_name(cell.role),
            cell.problem,
            outcome
        );
    };

    // --- Upward / View: materialized view maintenance (ins + del) ---
    let txn = proc.transaction("+la(maria).")?;
    let rep = proc.maintain_views(&txn)?;
    demo(
        0,
        format!("insert {} tuple(s) into stored unemp", rep.insertions),
    );
    let txn = proc.transaction("+works(dolors).")?;
    let rep = proc.maintain_views(&txn)?;
    demo(
        1,
        format!("delete {} tuple(s) from stored unemp", rep.deletions),
    );

    // --- Upward / Ic: checking (violation + restoration) ---
    let txn = proc.transaction("-u_benefit(dolors).")?;
    let out = proc.check_integrity(&txn)?;
    demo(
        2,
        match out {
            CheckOutcome::Violated(ref v) => {
                format!("T violates {:?} (rejected)", v[0].to_string())
            }
            ref other => format!("{other:?}"),
        },
    );
    let inconsistent = UpdateProcessor::new(parse_database(
        "la(dolors).
         unemp(X) :- la(X), not works(X).
         :- unemp(X), not u_benefit(X).",
    )?)?;
    let fix = inconsistent.transaction("+u_benefit(dolors).")?;
    demo(3, format!("{:?}", inconsistent.restores_consistency(&fix)?));

    // --- Upward / Cond: condition monitoring ---
    let txn = proc.transaction("+la(maria).")?;
    let ch = proc.monitor_conditions(&txn)?;
    demo(
        4,
        format!(
            "activated: {:?}",
            ch.activated[&needy][0].to_atom(needy).to_string()
        ),
    );
    // For deactivation, start from a state where the condition is active:
    // dolors needy (in labour age, no work, no benefit).
    let active = UpdateProcessor::new(parse_database(
        "#cond needy/1.
         la(dolors).
         needy(X) :- la(X), not works(X), not u_benefit(X).",
    )?)?;
    let txn = active.transaction("+u_benefit(dolors).")?;
    let ch = active.monitor_conditions(&txn)?;
    demo(
        5,
        format!("deactivated: {}", ch.deactivated[&needy][0].to_atom(needy)),
    );

    // --- Downward / View: view updating + validation ---
    let req = Request::new().achieve(
        EventKind::Ins,
        Atom::ground("unemp", vec![Const::sym("maria")]),
    );
    let res = proc.translate_view_update(&req)?;
    demo(
        6,
        format!(
            "{} translations, e.g. {}",
            res.alternatives.len(),
            res.alternatives[0]
        ),
    );
    let req = Request::new().achieve(EventKind::Del, dolors());
    let res = proc.translate_view_update(&req)?;
    demo(7, format!("{} translations", res.alternatives.len()));

    // --- Downward / View: preventing side effects ---
    let txn = proc.transaction("+la(maria).")?;
    let res = proc.prevent_side_effects(
        &txn,
        &[EventAtom::ins(Atom::ground(
            "unemp",
            vec![Const::sym("maria")],
        ))],
    )?;
    demo(
        8,
        format!("resulting transaction: {}", res.alternatives[0].to_do),
    );
    let txn = proc.transaction("+works(dolors).")?;
    let res = proc.prevent_side_effects(&txn, &[EventAtom::del(dolors())])?;
    demo(
        9,
        format!(
            "{} resulting transactions (deletion unavoidable)",
            res.alternatives.len()
        ),
    );

    // --- Downward / Ic: ensuring satisfaction, repair/satisfiability ---
    let ways = proc.violating_transactions()?.expect("has constraints");
    demo(
        10,
        format!(
            "{} ways to reach inconsistency found",
            ways.alternatives.len()
        ),
    );
    let RepairOutcome::Repairs(reps) = inconsistent.repairs()? else {
        unreachable!("inconsistent db");
    };
    demo(
        11,
        format!(
            "{} repairs, e.g. {}",
            reps.alternatives.len(),
            reps.alternatives[0]
        ),
    );

    // --- Downward / Ic: maintenance + maintaining inconsistency ---
    let txn = proc.transaction("+la(maria).")?;
    let MaintenanceOutcome::Resulting(res) = proc.maintain_integrity(&txn)? else {
        unreachable!()
    };
    demo(
        12,
        format!(
            "{} integrity-preserving resulting transactions",
            res.alternatives.len()
        ),
    );
    let txn = inconsistent.transaction("+u_benefit(dolors).")?;
    let out = inconsistent.maintain_inconsistency(&txn)?;
    demo(
        13,
        match out {
            MaintenanceOutcome::Resulting(r) => {
                format!(
                    "{} inconsistency-preserving transactions",
                    r.alternatives.len()
                )
            }
            other => format!("{other:?}"),
        },
    );

    // --- Downward / Cond: enforcing + validation ---
    let res = proc.enforce_condition(
        EventKind::Ins,
        Atom::ground("needy", vec![Const::sym("maria")]),
    )?;
    demo(
        14,
        format!("{} activating transactions", res.alternatives.len()),
    );
    let w = active.validate_condition(needy, EventKind::Del)?;
    demo(
        15,
        match w {
            Some(witness) => format!(
                "witness: del {} via {}",
                witness.tuple.to_atom(needy),
                witness.alternative.to_do
            ),
            None => "condition can never deactivate".to_string(),
        },
    );

    // --- Downward / Cond: preventing activation/deactivation ---
    let txn = proc.transaction("+la(maria).")?;
    let res = proc.prevent_condition_activation(&txn, needy, PreventKinds::Activation)?;
    demo(
        16,
        format!("{} safe resulting transactions", res.alternatives.len()),
    );
    let txn = proc.transaction("+works(dolors).")?;
    let res = proc.prevent_condition_activation(&txn, unemp, PreventKinds::Deactivation)?;
    demo(
        17,
        format!(
            "{} resulting transactions (deactivation unavoidable)",
            res.alternatives.len()
        ),
    );

    println!("\nall 18 cells executed through the two interpretations.");
    Ok(())
}
