//! # dduf-datalog
//!
//! A function-free Datalog engine with stratified negation: the deductive
//! database substrate of the Deductive Database Updating Framework (`dduf`).
//!
//! A deductive database `D = (F, DR, IC)` consists of extensional facts
//! `F`, deductive rules `DR`, and integrity constraints `IC` (stored as
//! *integrity rules* with inconsistency-predicate heads). This crate
//! provides:
//!
//! * the AST and a parser for a small surface language ([`parser`]);
//! * predicate roles and program assembly ([`schema`]);
//! * the *allowedness* (range restriction) check of §2 ([`safety`]);
//! * a multi-pass static analyzer with span-accurate diagnostics
//!   ([`analysis`]);
//! * dependency analysis and stratification ([`depgraph`], [`stratify`]);
//! * extensional storage ([`storage`]);
//! * naive bottom-up evaluation of the perfect model ([`eval`]), the
//!   reference materializer, and query answering over materialized
//!   states ([`query`]).
//!
//! ```
//! use dduf_datalog::parser::parse_database;
//! use dduf_datalog::eval::{materialize, StateView};
//! use dduf_datalog::ast::{Atom, Term};
//!
//! let db = parse_database(
//!     "la(dolors). la(joan). works(joan).
//!      unemp(X) :- la(X), not works(X).",
//! ).unwrap();
//! let model = materialize(&db).unwrap();
//! let state = StateView::new(&db, &model);
//! let answers = dduf_datalog::query::answers(
//!     state, &Atom::new("unemp", vec![Term::var("X")]));
//! assert_eq!(answers.len(), 1); // dolors
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod ast;
pub mod depgraph;
pub mod error;
pub mod eval;
pub mod magic;
pub mod parser;
pub mod pretty;
pub mod provenance;
pub mod query;
pub mod safety;
pub mod schema;
pub mod storage;
pub mod stratify;
pub mod symbol;

pub use ast::{Atom, Const, Literal, Pred, Rule, Term, Var};
pub use error::Error;
pub use eval::{materialize, Interpretation, StateView};
pub use schema::{DerivedRole, Program, Role};
pub use storage::{Database, Relation, Tuple};
pub use symbol::Sym;
