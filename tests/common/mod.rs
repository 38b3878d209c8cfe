//! Helpers shared by the integration suites (`mod common;`).

use dduf::prelude::*;

/// Commits `txn` the way a view-maintaining caller does: asks for the
/// view events first, commits, and checks that those events turn the old
/// stored extension of every view into the one the processor now stores
/// (which the callers compare with a fresh materialization).
pub fn commit_maintaining_views(proc: &mut UpdateProcessor, txn: &Transaction, step: usize) {
    let report = proc.maintain_views(txn).unwrap();
    let before = proc.interpretation().clone();
    proc.commit(txn).unwrap();
    for view in proc
        .database()
        .program()
        .derived_with_role(DerivedRole::View)
    {
        let maintained = before
            .relation(view)
            .difference(report.events.relation(EventKind::Del, view))
            .union(report.events.relation(EventKind::Ins, view));
        assert_eq!(
            &maintained,
            proc.interpretation().relation(view),
            "step {step}: reported events do not maintain {view}"
        );
    }
}
