//! # dduf-core
//!
//! The **common framework for classifying and specifying deductive database
//! updating problems** (Teniente & Urpí, ICDE 1995): the upward and
//! downward interpretations of the event rules, and the catalog of updating
//! problems specified in terms of them.
//!
//! * [`upward`] — changes on derived predicates induced by a transaction
//!   (§4.1): integrity checking, condition monitoring, materialized view
//!   maintenance.
//! * [`downward`] — transactions that satisfy requested changes on derived
//!   predicates (§4.2): view updating, side-effect prevention, repair,
//!   satisfiability, constraint maintenance, condition activation.
//! * [`problems`] — one typed entry point per cell of the paper's
//!   Table 4.1.
//! * [`processor`] — the uniform update-processing interface combining
//!   upward and downward problems (§5.3).
//! * [`evolution`] — insertions/deletions of deductive rules and
//!   constraints (§5.3 closing paragraph), with event-rule diffs.
//! * [`explain`] — explanations of induced events via derivation trees.
//! * [`domain`] — finite domains (global and per-predicate `#domain`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod domain;
pub mod downward;
pub mod error;
pub mod evolution;
pub mod explain;
pub mod problems;
pub mod processor;
pub mod rng;
pub mod testkit;
pub mod transaction;
pub mod upward;

pub use domain::Domain;
pub use downward::{Alternative, DownwardOptions, DownwardResult, Request};
pub use error::{Error, Result};
pub use processor::UpdateProcessor;
pub use transaction::Transaction;
pub use upward::UpwardResult;
