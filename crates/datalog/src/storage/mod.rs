//! Extensional storage: tuples, relations, and the database itself.

pub mod database;
pub mod relation;
pub mod runs;
pub mod tuple;

pub use database::Database;
pub use relation::Relation;
pub use runs::Runs;
pub use tuple::Tuple;
