//! # dduf — Deductive Database Updating Framework
//!
//! A Rust implementation of *“A Common Framework for Classifying and
//! Specifying Deductive Database Updating Problems”* (E. Teniente &
//! T. Urpí, ICDE 1995): the event rules of a deductive database, their
//! upward and downward interpretations, and the complete catalog of
//! updating problems of the paper's Table 4.1 — view updating,
//! materialized view maintenance, integrity constraint checking and
//! maintenance, repairing inconsistent databases, constraint
//! satisfiability, condition monitoring, and enforcing/preventing
//! condition activation — behind one uniform update-processing interface.
//!
//! This crate is the umbrella: it re-exports the five layers.
//!
//! * [`datalog`] — the deductive database substrate: AST, parser, storage,
//!   stratification, naive (reference) evaluation.
//! * [`events`] — transition rules and insertion/deletion event rules
//!   (Olivé 1991), with simplification.
//! * [`core`] — the interpretations and the problem catalog.
//! * [`persist`] — durable state: the append-only event journal, atomic
//!   snapshots, and crash recovery by replaying the upward interpretation.
//! * [`server`] — the concurrent TCP front end: one group-committing
//!   writer, snapshot-isolated readers (`dduf serve` / `dduf --connect`).
//!
//! ## Quickstart
//!
//! ```
//! use dduf::prelude::*;
//!
//! // The paper's employment database (examples 5.1–5.3).
//! let db = dduf::core::testkit::employment_db();
//! let mut proc = UpdateProcessor::new(db)?;
//!
//! // Upward (§5.1): does deleting Dolors' benefit violate integrity?
//! let txn = proc.transaction("-u_benefit(dolors).")?;
//! assert!(!proc.check_integrity(&txn)?.accepts());
//!
//! // Downward (§5.2): how can "Dolors is unemployed" stop holding?
//! let req = Request::new().achieve(
//!     EventKind::Del,
//!     Atom::ground("unemp", vec![Const::sym("dolors")]),
//! );
//! let res = proc.translate_view_update(&req)?;
//! assert_eq!(res.alternatives.len(), 2); // employ her, or end labour age
//! # Ok::<(), dduf::core::Error>(())
//! ```

#![forbid(unsafe_code)]
pub mod analyze;
pub mod cli;
pub mod db;
pub mod lint;
pub mod serve;

pub use dduf_core as core;
pub use dduf_datalog as datalog;
pub use dduf_events as events;
pub use dduf_obs as obs;
pub use dduf_persist as persist;
pub use dduf_server as server;

/// The most commonly used items of all three layers.
pub mod prelude {
    pub use dduf_core::downward::{Alternative, DownwardOptions, DownwardResult, Request};
    pub use dduf_core::evolution::{EventRuleChange, EvolutionResult};
    pub use dduf_core::explain::{explain_event, EventExplanation};
    pub use dduf_core::processor::UpdateProcessor;
    pub use dduf_core::transaction::Transaction;
    pub use dduf_core::upward::maintain::MaintenanceEngine;
    pub use dduf_core::upward::UpwardResult;
    pub use dduf_core::{Domain, Error, Result};
    pub use dduf_datalog::ast::{Atom, Const, Literal, Pred, Rule, Term, Var};
    pub use dduf_datalog::eval::{materialize, Interpretation, StateView};
    pub use dduf_datalog::magic::{self, MagicAnswers, MagicPath};
    pub use dduf_datalog::parser::{parse_database, parse_events};
    pub use dduf_datalog::provenance::{explain, explain_all, Derivation};
    pub use dduf_datalog::schema::{DerivedRole, Program, Role};
    pub use dduf_datalog::storage::{Database, Relation, Tuple};
    pub use dduf_events::event::{EventAtom, EventKind, GroundEvent};
    pub use dduf_events::rules::{EventRuleSystem, EventRules};
    pub use dduf_events::store::EventStore;
    pub use dduf_events::transition::TransitionRule;
    pub use dduf_persist::{DurableDb, DurableStore, PersistError, Recovery, VerifyReport};
}
