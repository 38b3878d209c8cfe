//! The uniform update processing system (§1, §5.3).
//!
//! "Deductive databases include an update processing system that provides
//! the users with a uniform interface." [`UpdateProcessor`] is that
//! interface: it owns a database and the maintenance engine that holds
//! its derived state, exposes every problem of Table 4.1 as a method, and
//! implements the combinations of §5.3 — upward sets, downward sets, and
//! downward-then-upward pipelines (e.g. view updating with maintained
//! *and* checked constraints).

use crate::downward::{Alternative, DownwardOptions, DownwardResult, Request};
use crate::error::{Error, Result};
use crate::evolution::{self, EvolutionResult};
use crate::problems::{
    condition_activation, condition_monitoring, condition_prevention, ic_checking, ic_maintenance,
    repair, side_effects, view_maintenance, view_updating,
};
use crate::transaction::Transaction;
use crate::upward::maintain::MaintenanceEngine;
use crate::upward::UpwardResult;
use dduf_datalog::ast::{Atom, Literal, Pred, Rule};
use dduf_datalog::eval::{Interpretation, StateView};
use dduf_datalog::schema::{DerivedRole, Program, Role};
use dduf_datalog::storage::database::Database;
use dduf_events::event::{EventAtom, EventKind};

/// Condition monitoring and view maintenance ask for both event kinds.
const BOTH_KINDS: [EventKind; 2] = [EventKind::Ins, EventKind::Del];

/// The uniform update-processing interface over one deductive database.
#[derive(Clone, Debug)]
pub struct UpdateProcessor {
    db: Database,
    opts: DownwardOptions,
    /// The derived state — extensions, support counts, ranks — and the
    /// upward interpretation over it (counting / DRed per stratum): every
    /// commit goes through its pass, and every read runs the same pass
    /// and drops it.
    maint: MaintenanceEngine,
}

/// The full published state of a processor — what
/// [`UpdateProcessor::into_state`] surrenders and
/// [`UpdateProcessor::from_state`] accepts back without re-deriving
/// anything. The server's writer thread round-trips this through its
/// snapshot-isolation cell on every group commit.
#[derive(Clone, Debug)]
pub struct ProcessorState {
    /// The extensional database (facts + program).
    pub db: Database,
    /// The materialized current state of the derived predicates: the
    /// engine's extensions, sharing their runs.
    pub interp: Interpretation,
    /// The maintenance state (support counts + extensions, no ranks).
    /// [`UpdateProcessor::into_state`] always sets it; a state without
    /// one is rebuilt from `interp` by [`UpdateProcessor::from_state`].
    pub maint: Option<MaintenanceEngine>,
}

impl UpdateProcessor {
    /// Creates a processor over `db`, its maintenance engine building the
    /// derived state ([`MaintenanceEngine::new`]: every rule evaluated
    /// once, counting for non-recursive strata, DRed for recursive ones).
    pub fn new(db: Database) -> Result<UpdateProcessor> {
        let maint = MaintenanceEngine::new(&db)?;
        Ok(UpdateProcessor {
            db,
            opts: DownwardOptions::default(),
            maint,
        })
    }

    /// The processor itself: every processor maintains its derived state
    /// through a [`MaintenanceEngine`]. Kept so callers that enabled
    /// maintenance explicitly still build.
    pub fn with_maintenance(self) -> Result<UpdateProcessor> {
        Ok(self)
    }

    /// The maintenance engine; always `Some`.
    pub fn maintenance(&self) -> Option<&MaintenanceEngine> {
        Some(&self.maint)
    }

    /// Sets the downward options.
    pub fn with_options(mut self, opts: DownwardOptions) -> UpdateProcessor {
        self.opts = opts;
        self
    }

    /// Rebuilds a processor from previously published state **without
    /// re-materializing** — the constructor behind snapshot publication
    /// (`dduf serve`) and recovery: rebuilding the next staging processor
    /// from a published state is a clone, not a fixpoint evaluation.
    ///
    /// Trusted: `state.maint` must be the maintenance state of `state.db`,
    /// as [`into_state`](Self::into_state) guarantees; anything else gives
    /// silently wrong upward interpretations. A state without one gets an
    /// engine built in full from `state.db` ([`MaintenanceEngine::new`]).
    pub fn from_state(state: ProcessorState) -> UpdateProcessor {
        let maint = state.maint.unwrap_or_else(|| {
            MaintenanceEngine::new(&state.db).expect("a published database is stratified")
        });
        UpdateProcessor {
            db: state.db,
            opts: DownwardOptions::default(),
            maint,
        }
    }

    /// Surrenders the full published state, maintenance included — the
    /// counterpart of [`from_state`](Self::from_state). The engine goes
    /// without its ranks: they are working state of the processor that
    /// commits, which one rebuilt from this state builds again when it
    /// needs them, and a snapshot holding them would keep alive its own
    /// copy of every rank run the next batches rewrite.
    pub fn into_state(self) -> ProcessorState {
        ProcessorState {
            db: self.db,
            interp: self.maint.interpretation().clone(),
            maint: Some(self.maint.without_ranks()),
        }
    }

    /// The database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The materialized current state of the derived predicates: the
    /// maintenance engine's extensions.
    pub fn interpretation(&self) -> &Interpretation {
        self.maint.interpretation()
    }

    /// The full current state (base + derived).
    pub fn state(&self) -> StateView<'_> {
        StateView::new(&self.db, self.interpretation())
    }

    /// Parses a transaction against this database.
    pub fn transaction(&self, src: &str) -> Result<Transaction> {
        Transaction::parse(&self.db, src)
    }

    // ----- upward problems (§5.1) -----

    /// The raw upward interpretation of a transaction — every induced
    /// event — read off the maintenance engine's pass.
    pub fn upward(&self, txn: &Transaction) -> Result<UpwardResult> {
        self.maint.interpret_for(&self.db, txn, None)
    }

    /// The upward interpretation of the `kinds` events on `preds`: the
    /// cell of Table 4.1 a read-only upward problem below is, which is all
    /// the engine's pass then runs for.
    fn upward_for(
        &self,
        txn: &Transaction,
        preds: impl IntoIterator<Item = Pred>,
        kinds: &[EventKind],
    ) -> Result<UpwardResult> {
        let goals = preds
            .into_iter()
            .flat_map(|p| kinds.iter().map(move |&kind| (p, kind)))
            .collect();
        self.maint.interpret_for(&self.db, txn, Some(&goals))
    }

    /// §5.1.1 — does `txn` violate the integrity constraints?
    pub fn check_integrity(&self, txn: &Transaction) -> Result<ic_checking::CheckOutcome> {
        ic_checking::check_transaction(&self.db, &self.maint, txn)
    }

    /// §5.1.1 — does `txn` restore a currently inconsistent database?
    pub fn restores_consistency(&self, txn: &Transaction) -> Result<ic_checking::RestoreOutcome> {
        let up = self.upward_for(txn, self.db.program().global_ic(), &[EventKind::Del])?;
        Ok(ic_checking::restores_consistency(
            &self.db,
            self.interpretation(),
            &up,
        ))
    }

    /// §5.1.2 — changes induced on monitored conditions.
    pub fn monitor_conditions(
        &self,
        txn: &Transaction,
    ) -> Result<condition_monitoring::ConditionChanges> {
        let conditions = self.db.program().derived_with_role(DerivedRole::Cond);
        let up = self.upward_for(txn, conditions, &BOTH_KINDS)?;
        Ok(condition_monitoring::monitor(&self.db, &up, None))
    }

    /// §5.1.3 — the changes `txn` induces on the materialized views.
    pub fn maintain_views(&self, txn: &Transaction) -> Result<view_maintenance::MaintenanceReport> {
        let views = self.db.program().derived_with_role(DerivedRole::View);
        let up = self.upward_for(txn, views, &BOTH_KINDS)?;
        Ok(view_maintenance::maintain(&self.db, &up))
    }

    // ----- downward problems (§5.2) -----

    /// §5.2.1 — translate a view update request.
    pub fn translate_view_update(&self, request: &Request) -> Result<DownwardResult> {
        view_updating::translate(&self.db, self.interpretation(), request, &self.opts)
    }

    /// §5.2.1 — view validation.
    pub fn validate_view(
        &self,
        view: Pred,
        kind: EventKind,
    ) -> Result<Option<view_updating::ValidationWitness>> {
        view_updating::validate(&self.db, &self.maint, view, kind, &self.opts)
    }

    /// §5.2.2 — prevent given side effects of `txn`.
    pub fn prevent_side_effects(
        &self,
        txn: &Transaction,
        unwanted: &[EventAtom],
    ) -> Result<DownwardResult> {
        side_effects::prevent(&self.db, self.interpretation(), txn, unwanted, &self.opts)
    }

    /// §5.2.3 — repairs of an inconsistent database.
    pub fn repairs(&self) -> Result<repair::RepairOutcome> {
        repair::repairs(&self.db, self.interpretation(), &self.opts)
    }

    /// §5.2.3 — integrity-constraint satisfiability.
    pub fn satisfiable(&self) -> Result<repair::Satisfiability> {
        repair::satisfiable(&self.db, self.interpretation(), &self.opts)
    }

    /// §5.2.3 — ways the database could become inconsistent.
    pub fn violating_transactions(&self) -> Result<Option<DownwardResult>> {
        repair::violating_transactions(&self.db, self.interpretation(), &self.opts)
    }

    /// §5.2.4 — integrity maintenance of `txn`.
    pub fn maintain_integrity(
        &self,
        txn: &Transaction,
    ) -> Result<ic_maintenance::MaintenanceOutcome> {
        ic_maintenance::maintain(&self.db, self.interpretation(), txn, &self.opts)
    }

    /// §5.2.4 — maintaining inconsistency under `txn`.
    pub fn maintain_inconsistency(
        &self,
        txn: &Transaction,
    ) -> Result<ic_maintenance::MaintenanceOutcome> {
        ic_maintenance::maintain_inconsistency(&self.db, self.interpretation(), txn, &self.opts)
    }

    /// §5.2.5 — enforce a condition (de)activation.
    pub fn enforce_condition(&self, kind: EventKind, cond_atom: Atom) -> Result<DownwardResult> {
        condition_activation::enforce(&self.db, self.interpretation(), kind, cond_atom, &self.opts)
    }

    /// §5.2.5 — condition validation.
    pub fn validate_condition(
        &self,
        cond: Pred,
        kind: EventKind,
    ) -> Result<Option<view_updating::ValidationWitness>> {
        condition_activation::validate(&self.db, &self.maint, cond, kind, &self.opts)
    }

    /// §5.2.6 — prevent condition activation under `txn`.
    pub fn prevent_condition_activation(
        &self,
        txn: &Transaction,
        cond: Pred,
        kinds: condition_prevention::PreventKinds,
    ) -> Result<DownwardResult> {
        condition_prevention::prevent_activation(
            &self.db,
            self.interpretation(),
            txn,
            cond,
            kinds,
            &self.opts,
        )
    }

    // ----- combinations (§5.3) -----

    /// View updating combined with integrity maintenance: downward
    /// `{request, ¬ins Ic}` — translations that both satisfy the request
    /// and keep every constraint satisfied.
    pub fn view_update_with_integrity(&self, request: &Request) -> Result<DownwardResult> {
        let mut req = request.clone();
        if let Some(global) = self.db.program().global_ic() {
            req = req.prevent(
                EventKind::Ins,
                Atom {
                    pred: global,
                    terms: vec![],
                    span: None,
                },
            );
        }
        crate::downward::interpret_with(&self.db, self.interpretation(), &req, &self.opts)
    }

    /// View updating combined with integrity *checking*: translate the
    /// request, then upward-check each alternative and keep only those
    /// that violate no constraint (the generate-and-test pipeline of
    /// §5.3's closing discussion).
    pub fn view_update_checked(&self, request: &Request) -> Result<DownwardResult> {
        let mut res = self.translate_view_update(request)?;
        let mut kept = Vec::new();
        for alt in res.alternatives.drain(..) {
            let txn = alt.to_transaction(&self.db)?;
            if self.check_integrity(&txn)?.accepts() {
                kept.push(alt);
            }
        }
        res.alternatives = kept;
        Ok(res)
    }

    /// The mixed pipeline of §5.3: maintain the constraints in
    /// `maintained` downward (their violation is prevented inside the
    /// search, possibly adding compensating updates) and check the
    /// constraints in `checked` upward (alternatives violating them are
    /// rejected).
    pub fn view_update_mixed(
        &self,
        request: &Request,
        maintained: &[Pred],
        checked: &[Pred],
    ) -> Result<DownwardResult> {
        let mut req = request.clone();
        for &icp in maintained {
            let vars: Vec<dduf_datalog::ast::Term> = (0..icp.arity)
                .map(|i| dduf_datalog::ast::Term::var(&format!("Vm{i}")))
                .collect();
            req = req.prevent(
                EventKind::Ins,
                Atom {
                    pred: icp,
                    terms: vars,
                    span: None,
                },
            );
        }
        let mut res =
            crate::downward::interpret_with(&self.db, self.interpretation(), &req, &self.opts)?;
        let mut kept = Vec::new();
        for alt in res.alternatives.drain(..) {
            let txn = alt.to_transaction(&self.db)?;
            let up = self.upward_for(&txn, checked.iter().copied(), &[EventKind::Ins])?;
            let violates = checked
                .iter()
                .any(|&icp| !up.derived.relation(EventKind::Ins, icp).is_empty());
            if !violates {
                kept.push(alt);
            }
        }
        res.alternatives = kept;
        Ok(res)
    }

    // ----- state evolution -----

    /// Applies a transaction without checking it: updates the extensional
    /// database and refreshes the materialized state from the upward
    /// result (old state plus induced events), returning that result.
    pub fn commit(&mut self, txn: &Transaction) -> Result<UpwardResult> {
        self.commit_with_hook(txn, &mut |_| Ok(()))
    }

    /// [`commit`](Self::commit) with the write-ahead hook of
    /// [`apply`](Self::apply).
    pub fn commit_with_hook(
        &mut self,
        txn: &Transaction,
        hook: &mut dyn FnMut(&Transaction) -> Result<()>,
    ) -> Result<UpwardResult> {
        let applied = self.apply(txn, false, hook)?;
        Ok(applied.expect("an unchecked commit is never rejected"))
    }

    /// The one commit sequence (§5.3): `txn` is upward-interpreted
    /// **once**, by the maintenance engine, which stages the new state
    /// without installing it; when `checked`, the
    /// integrity check is read off that interpretation and a violating
    /// transaction is returned as the [`Rejection`](ic_checking::Rejection)
    /// (a database without constraints, or one that is already
    /// inconsistent, blocks nothing); then `hook` runs — a durable store
    /// appends the transaction to its journal here — and only if the hook
    /// succeeds is the in-memory state mutated from the same
    /// interpretation, which is returned. A rejected transaction or a
    /// failing hook therefore leaves the processor (database,
    /// interpretation, support counts) and the store describing the same
    /// old state, and a rejected transaction never reaches the hook.
    pub fn apply(
        &mut self,
        txn: &Transaction,
        checked: bool,
        hook: &mut dyn FnMut(&Transaction) -> Result<()>,
    ) -> Result<std::result::Result<UpwardResult, ic_checking::Rejection>> {
        let (result, staged) = self.maint.interpret(&self.db, txn)?;
        if checked {
            if let ic_checking::CheckOutcome::Violated(events) =
                ic_checking::check(&self.db, self.interpretation(), &result)
            {
                return Ok(Err(ic_checking::Rejection(events)));
            }
        }
        hook(txn)?;
        txn.apply_in_place(&mut self.db);
        self.maint.commit_staged(staged);
        Ok(Ok(result))
    }

    /// Applies the chosen alternative of a downward result.
    pub fn commit_alternative(&mut self, alt: &Alternative) -> Result<UpwardResult> {
        let txn = alt.to_transaction(&self.db)?;
        self.commit(&txn)
    }

    // ----- rule updates (§5.3 closing paragraph) -----

    /// Adds a deductive rule, reporting the changed event rules and the
    /// derived events the schema change induces (derived facts appearing
    /// although no base fact changed).
    pub fn add_rule(&mut self, rule: Rule) -> Result<EvolutionResult> {
        self.evolve(evolution::rebuild_program(self.db.program(), &[rule], &[])?)
    }

    /// Removes the first rule equal to `rule`; a rule the program lacks
    /// is an error, and the processor stays as it was.
    pub fn remove_rule(&mut self, rule: &Rule) -> Result<EvolutionResult> {
        if !self.db.program().rules().contains(rule) {
            return Err(Error::NotInProgram(format!("rule `{rule}`")));
        }
        let removed = std::slice::from_ref(rule);
        self.evolve(evolution::rebuild_program(self.db.program(), &[], removed)?)
    }

    /// Adds an integrity constraint in denial form; returns the outcome
    /// plus the synthesized inconsistency predicate.
    pub fn add_constraint(&mut self, body: Vec<Literal>) -> Result<(EvolutionResult, Pred)> {
        let (program, pred) = evolution::rebuild_with_denial(self.db.program(), body)?;
        Ok((self.evolve(program)?, pred))
    }

    /// Removes every rule defining the given inconsistency predicate
    /// (dropping the constraint). A predicate that is not a constraint's
    /// is an error, and the processor stays as it was.
    pub fn remove_constraint(&mut self, ic: Pred) -> Result<EvolutionResult> {
        let program = self.db.program();
        if program.role(ic) != Some(Role::Derived(DerivedRole::Ic)) {
            return Err(Error::NotInProgram(format!("constraint {ic}")));
        }
        let doomed: Vec<Rule> = program.rules_for(ic).into_iter().cloned().collect();
        self.evolve(evolution::rebuild_program(program, &[], &doomed)?)
    }

    /// Installs a new program: rebinds the facts; the engine re-evaluates
    /// what the update reaches ([`MaintenanceEngine::build`]).
    fn evolve(&mut self, program: Program) -> Result<EvolutionResult> {
        let rule_changes = evolution::rule_changes(self.db.program(), &program);
        let db = self.db.with_program(program).map_err(Error::from)?;
        let changed = rule_changes.iter().map(|c| c.pred()).collect();
        let (maint, induced) = MaintenanceEngine::build(&db, Some((&self.maint, &changed)))?;
        (self.db, self.maint) = (db, maint);
        Ok(EvolutionResult {
            induced,
            rule_changes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::ast::Const;
    use dduf_datalog::eval::materialize;
    use dduf_datalog::parser::parse_database;

    fn processor() -> UpdateProcessor {
        let db = parse_database(
            "la(dolors). u_benefit(dolors).
             unemp(X) :- la(X), not works(X).
             :- unemp(X), not u_benefit(X).",
        )
        .unwrap();
        UpdateProcessor::new(db).unwrap()
    }

    #[test]
    fn uniform_interface_covers_both_directions() {
        let p = processor();
        let txn = p.transaction("-u_benefit(dolors).").unwrap();
        assert!(!p.check_integrity(&txn).unwrap().accepts());

        let req = Request::new().achieve(
            EventKind::Del,
            Atom::ground("unemp", vec![Const::sym("dolors")]),
        );
        let down = p.translate_view_update(&req).unwrap();
        assert_eq!(down.alternatives.len(), 2);
    }

    #[test]
    fn view_update_with_integrity_blocks_violations() {
        // Insert unemp(maria) — i.e. put her in labour age jobless — while
        // maintaining the benefit constraint: the translation must add
        // +u_benefit(maria).
        let p = processor();
        let req = Request::new().achieve(
            EventKind::Ins,
            Atom::ground("unemp", vec![Const::sym("maria")]),
        );
        let plain = p.translate_view_update(&req).unwrap();
        assert!(plain
            .alternatives
            .iter()
            .any(|a| a.to_do.to_string() == "{+la(maria)}"));

        let safe = p.view_update_with_integrity(&req).unwrap();
        assert!(!safe.alternatives.is_empty());
        for alt in &safe.alternatives {
            let txn = alt.to_transaction(p.database()).unwrap();
            assert!(
                p.check_integrity(&txn).unwrap().accepts(),
                "unsafe alternative {alt}"
            );
        }
        assert!(safe
            .alternatives
            .iter()
            .any(|a| a.to_do.to_string().contains("+u_benefit(maria)")));
    }

    #[test]
    fn checked_pipeline_equals_maintained_acceptance() {
        let p = processor();
        let req = Request::new().achieve(
            EventKind::Ins,
            Atom::ground("unemp", vec![Const::sym("maria")]),
        );
        let checked = p.view_update_checked(&req).unwrap();
        // Checking rejects the bare +la(maria) translation (it violates),
        // keeping only those whose *own* events already satisfy the ICs.
        for alt in &checked.alternatives {
            let txn = alt.to_transaction(p.database()).unwrap();
            assert!(p.check_integrity(&txn).unwrap().accepts());
        }
    }

    #[test]
    fn mixed_pipeline_runs() {
        let p = processor();
        let req = Request::new().achieve(
            EventKind::Ins,
            Atom::ground("unemp", vec![Const::sym("maria")]),
        );
        let ic1 = Pred::new("ic1", 0);
        let res = p.view_update_mixed(&req, &[ic1], &[]).unwrap();
        assert!(!res.alternatives.is_empty());
        let res2 = p.view_update_mixed(&req, &[], &[ic1]).unwrap();
        for alt in &res2.alternatives {
            let txn = alt.to_transaction(p.database()).unwrap();
            assert!(p.check_integrity(&txn).unwrap().accepts());
        }
    }

    #[test]
    fn commit_keeps_interpretation_fresh() {
        let mut p = processor();
        let txn = p.transaction("+works(dolors).").unwrap();
        p.commit(&txn).unwrap();
        let fresh = materialize(p.database()).unwrap();
        assert_eq!(p.interpretation(), &fresh);
        // unemp(dolors) no longer holds.
        assert!(fresh.relation(Pred::new("unemp", 1)).is_empty());
        // Further updates still work.
        let txn2 = p.transaction("-works(dolors).").unwrap();
        p.commit(&txn2).unwrap();
        let fresh2 = materialize(p.database()).unwrap();
        assert_eq!(p.interpretation(), &fresh2);
    }

    /// Commits and reads agree with the semantic oracle, on a processor
    /// and on one rebuilt from a state that carries no engine (which
    /// `from_state` builds from the interpretation).
    #[test]
    fn maintained_commit_matches_stateless_commit() {
        let src = "e(a, b). e(b, c). e(a, c).
                   tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).
                   src(X) :- e(X, Y), not e(Y, X).";
        let txns = ["-e(b, c).", "+e(c, d). +e(b, c).", "-e(a, b). -e(a, c)."];
        let db = parse_database(src).unwrap();
        let mut maintained = UpdateProcessor::new(db.clone())
            .unwrap()
            .with_maintenance()
            .unwrap();
        let mut plain = UpdateProcessor::from_state(ProcessorState {
            interp: materialize(&db).unwrap(),
            db,
            maint: None,
        });
        for t in &txns {
            let txn = maintained.transaction(t).unwrap();
            let expected =
                crate::upward::semantic::interpret(plain.database(), plain.interpretation(), &txn)
                    .unwrap();
            assert_eq!(maintained.upward(&txn).unwrap(), expected, "{t}");
            assert_eq!(maintained.commit(&txn).unwrap(), expected, "{t}");
            assert_eq!(plain.commit(&txn).unwrap(), expected, "{t}");
            assert_eq!(maintained.interpretation(), plain.interpretation(), "{t}");
        }
        // Maintenance state survives the round trip through the published
        // state (the server's per-batch path) without re-derivation.
        let state = maintained.into_state();
        assert!(state.maint.is_some());
        let mut rebuilt = UpdateProcessor::from_state(state);
        assert_eq!(rebuilt.interpretation(), plain.interpretation());
        assert!(rebuilt.maintenance().is_some());
        // ... and the rebuilt processor evaluates from the carried state.
        let txn = rebuilt.transaction("+e(a, b).").unwrap();
        assert_eq!(rebuilt.upward(&txn).unwrap(), plain.upward(&txn).unwrap());
        assert_eq!(rebuilt.commit(&txn).unwrap(), plain.commit(&txn).unwrap());
    }

    /// A commit that does not happen — the hook fails, or the check
    /// rejects it — moves nothing, and a rejected one never reaches the
    /// hook.
    #[test]
    fn maintained_commit_aborts_cleanly_on_hook_failure() {
        let db = parse_database(
            "e(a, b). e(b, c).
             tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).
             src(X) :- e(X, Y), not e(Y, X).
             :- tc(X, X).",
        )
        .unwrap();
        let mut p = UpdateProcessor::new(db).unwrap();
        let before = (
            dduf_datalog::pretty::database(p.database()),
            p.interpretation().clone(),
            p.maintenance().unwrap().counts().clone(),
        );
        let hook_calls = std::cell::Cell::new(0);
        // (transaction, checked, the hook's answer)
        for (src, checked, journal_full) in [("-e(a, b).", false, true), ("+e(c, a).", true, false)]
        {
            let txn = p.transaction(src).unwrap();
            let out = p.apply(&txn, checked, &mut |_| {
                hook_calls.set(hook_calls.get() + 1);
                if journal_full {
                    Err(Error::Storage("journal full".into()))
                } else {
                    Ok(())
                }
            });
            match out {
                Err(Error::Storage(_)) => assert!(journal_full, "{src}"),
                Ok(Err(rejection)) => assert_eq!(
                    rejection.to_string(),
                    "REJECTED: violates +ic1 (use :force to override)"
                ),
                other => panic!("{src} must not commit: {other:?}"),
            }
            // Nothing moved: database, interpretation, and counts all intact.
            assert_eq!(dduf_datalog::pretty::database(p.database()), before.0);
            assert_eq!(p.interpretation(), &before.1, "{src}");
            assert_eq!(p.interpretation(), &materialize(p.database()).unwrap());
            assert_eq!(p.maintenance().unwrap().counts(), &before.2, "{src}");
        }
        // Only the unrejected transaction reached the hook.
        assert_eq!(hook_calls.get(), 1);
        assert_eq!(p.interpretation().relation(Pred::new("tc", 2)).len(), 3);
    }

    /// The engine ranks a recursive component in the transaction that
    /// first re-derives a tuple of it, and the ranks are staged like the
    /// rest of that transaction: a vetoed one leaves none behind, and the
    /// engine is its old self.
    #[test]
    fn ranks_are_installed_by_the_commit_and_never_published() {
        let db = parse_database(
            "e(a, b). e(a, c). e(b, d). e(c, d).
             tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
        )
        .unwrap();
        let mut p = UpdateProcessor::new(db).unwrap();
        let tc = Pred::new("tc", 2);
        let ranked = |p: &UpdateProcessor| {
            let engine = p.maintenance().unwrap();
            engine.check_ranks(p.database()).unwrap();
            engine
                .extension(tc)
                .iter()
                .all(|t| engine.rank(tc, t).is_some())
        };
        let before = p.interpretation().clone();
        // tc(a, d) goes with b → d and comes back through c.
        let txn = p.transaction("-e(b, d).").unwrap();
        let vetoed = p.apply(&txn, true, &mut |_| {
            Err(Error::Storage("journal full".into()))
        });
        assert!(matches!(vetoed, Err(Error::Storage(_))));
        assert_eq!(p.interpretation(), &before);
        assert!(!ranked(&p), "a vetoed transaction installed its ranks");
        p.apply(&txn, true, &mut |_| Ok(())).unwrap().unwrap();
        assert!(ranked(&p), "the committed one did not");
        // Ranks are the committing processor's working state: a published
        // state carries none, and a processor rebuilt from it ranks again.
        let mut rebuilt = UpdateProcessor::from_state(p.clone().into_state());
        assert!(!ranked(&rebuilt));
        let txn = rebuilt.transaction("+e(b, d). -e(c, d).").unwrap();
        rebuilt.apply(&txn, true, &mut |_| Ok(())).unwrap().unwrap();
        assert!(ranked(&rebuilt));
    }

    /// One upward interpretation per commit, checked or not, accepted or
    /// rejected: the maintenance engine's, never a read besides it.
    #[test]
    fn checked_commit_interprets_once() {
        for (src, accepted) in [("+works(dolors).", true), ("-u_benefit(dolors).", false)] {
            let mut p = processor();
            let txn = p.transaction(src).unwrap();
            let (out, report) = dduf_obs::capture(|| p.apply(&txn, true, &mut |_| Ok(())));
            assert_eq!(out.unwrap().is_ok(), accepted, "{src}");
            let spans = |phase: &str| {
                report
                    .iter()
                    .filter(|(p, _, _)| *p == phase)
                    .map(|(_, _, node)| node.count)
                    .sum::<u64>()
            };
            assert_eq!(spans("upward.maintain"), 1, "{src}");
            assert_eq!(report.total("upward.maintain", "transactions"), 1);
            assert_eq!(spans("upward.apply"), 0, "{src}");
        }
    }

    #[test]
    fn rule_updates_rebuild_maintenance() {
        let db = parse_database("e(a, b). e(b, c). v(X) :- e(X, Y).").unwrap();
        let mut p = UpdateProcessor::new(db).unwrap();
        let rule = dduf_datalog::parser::parse_program("w(X) :- e(Y, X).")
            .unwrap()
            .program
            .rules()[0]
            .clone();
        p.add_rule(rule).unwrap();
        let m = p.maintenance().unwrap();
        assert!(m.strategy(Pred::new("w", 1)).is_some());
        assert_eq!(m.extension(Pred::new("w", 1)).len(), 2);
    }

    #[test]
    fn commit_alternative_applies_choice() {
        let mut p = processor();
        let req = Request::new().achieve(
            EventKind::Del,
            Atom::ground("unemp", vec![Const::sym("dolors")]),
        );
        let res = p.translate_view_update(&req).unwrap();
        let alt = res.alternatives[0].clone();
        p.commit_alternative(&alt).unwrap();
        assert!(p
            .interpretation()
            .relation(Pred::new("unemp", 1))
            .is_empty());
    }
}
