//! Materialized view maintenance over a stream of transactions (§5.1.3).
//!
//! Models a small order-processing schema with two materialized views —
//! a join view (`order_city`) and a negation view (`pending`) — and
//! maintains their stored extensions (the processor's interpretation)
//! incrementally through a stream of updates, verifying after every step
//! that they match a from-scratch rematerialization.
//!
//! Run with: `cargo run --example view_maintenance`

use dduf::prelude::*;

fn main() -> Result<()> {
    let db = parse_database(include_str!("programs/view_maintenance.dl"))?;
    let mut proc = UpdateProcessor::new(db)?;
    let views = proc
        .database()
        .program()
        .derived_with_role(DerivedRole::View);
    println!(
        "materialized {} views, {} tuples",
        views.len(),
        views
            .iter()
            .map(|&v| proc.interpretation().relation(v).len())
            .sum::<usize>()
    );

    let stream = [
        "+order(o3, acme).",
        "+shipped(o1).",
        "+customer(initech, bcn). +order(o4, initech).",
        "-order(o2, globex).",
        "-shipped(o1). +shipped(o3).",
    ];

    for (step, src) in stream.iter().enumerate() {
        let txn = proc.transaction(src)?;
        let report = proc.maintain_views(&txn)?;
        println!(
            "step {}: {src:<40} -> +{} / -{} view tuples (events: {})",
            step + 1,
            report.insertions,
            report.deletions,
            report.events
        );
        // Commit applies the same events to the stored extensions; verify
        // them against a full rematerialization — the invariant
        // incremental maintenance must keep.
        proc.commit(&txn)?;
        let fresh = materialize(proc.database())?;
        for &view in &views {
            assert_eq!(
                proc.interpretation().relation(view),
                fresh.relation(view),
                "{view} diverged at step {}",
                step + 1
            );
        }
    }

    println!("\nfinal state of materialized views:");
    for &view in &views {
        for t in proc.interpretation().relation(view).iter() {
            println!("  {}", t.to_atom(view));
        }
    }
    println!("views stayed consistent through {} steps.", stream.len());
    Ok(())
}
