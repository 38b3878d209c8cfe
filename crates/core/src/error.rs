//! Errors of the updating framework.

use dduf_datalog::ast::Pred;
use dduf_events::event::GroundEvent;
use std::fmt;

/// Errors raised by the interpreters and problem solvers.
#[derive(Clone, PartialEq, Debug)]
pub enum Error {
    /// An error from the datalog substrate (parse/schema/eval).
    Datalog(dduf_datalog::error::Error),
    /// A transaction event targets a derived predicate. §3.1: a transaction
    /// consists of *base* event facts; derived events are induced (upward)
    /// or requested (downward), never given directly in a transaction.
    DerivedEventInTransaction(GroundEvent),
    /// A transaction event has a variable (rendered): §3.1 defines a
    /// transaction as a set of base event *facts*, so every event is ground.
    NonGroundEvent(String),
    /// A transaction contains both `+p(c̄)` and `-p(c̄)`: no transition can
    /// satisfy both event definitions for the same atom.
    ConflictingEvents {
        /// The predicate.
        pred: Pred,
        /// Rendered conflicting atom.
        atom: String,
    },
    /// A downward request targets a base predicate event with a
    /// non-instantiable variable (empty domain).
    EmptyDomain,
    /// The downward interpretation descended into a recursively defined
    /// predicate, which this implementation does not support (the paper
    /// only treats hierarchical definitions downward; see DESIGN.md §4).
    RecursiveDownward(Pred),
    /// A search limit was exceeded (alternatives, groundings, or depth).
    LimitExceeded {
        /// What limit was hit.
        what: &'static str,
        /// The configured bound.
        limit: usize,
    },
    /// A request referenced a predicate with no definition or declaration.
    UnknownPredicate(Pred),
    /// A removal names a rule or constraint the program lacks (rendered).
    NotInProgram(String),
    /// A durable-storage hook refused a commit (e.g. the journal append
    /// failed), so the in-memory state was left unchanged.
    Storage(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Datalog(e) => write!(f, "{e}"),
            Error::DerivedEventInTransaction(e) => {
                write!(
                    f,
                    "transaction event {e} targets a derived predicate; transactions consist of base fact updates (§3.1)"
                )
            }
            Error::NonGroundEvent(e) => {
                write!(
                    f,
                    "transaction event {e} is not ground; transactions consist of ground base fact updates (§3.1)"
                )
            }
            Error::ConflictingEvents { pred: _, atom } => {
                write!(f, "transaction both inserts and deletes {atom}")
            }
            Error::EmptyDomain => {
                write!(
                    f,
                    "cannot instantiate event variables: the finite domain is empty"
                )
            }
            Error::RecursiveDownward(p) => {
                write!(
                    f,
                    "downward interpretation of recursively defined predicate {p} is not supported"
                )
            }
            Error::LimitExceeded { what, limit } => {
                write!(f, "downward search limit exceeded: {what} > {limit}")
            }
            Error::UnknownPredicate(p) => write!(f, "unknown predicate {p}"),
            Error::NotInProgram(what) => write!(f, "the program has no {what}"),
            Error::Storage(msg) => write!(f, "durable storage rejected the commit: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Datalog(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dduf_datalog::error::Error> for Error {
    fn from(e: dduf_datalog::error::Error) -> Error {
        Error::Datalog(e)
    }
}

impl From<dduf_datalog::error::SchemaError> for Error {
    fn from(e: dduf_datalog::error::SchemaError) -> Error {
        Error::Datalog(e.into())
    }
}

impl From<dduf_datalog::error::ParseError> for Error {
    fn from(e: dduf_datalog::error::ParseError) -> Error {
        Error::Datalog(e.into())
    }
}

/// Result alias for the framework.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = Error::RecursiveDownward(Pred::new("tc", 2));
        assert!(e.to_string().contains("tc/2"));
        let e = Error::LimitExceeded {
            what: "alternatives",
            limit: 10,
        };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn datalog_errors_convert() {
        use std::error::Error as _;
        let inner = dduf_datalog::error::EvalError::UnknownPredicate(Pred::new("p", 1));
        let e: Error = dduf_datalog::error::Error::from(inner).into();
        assert!(e.source().is_some());
    }
}
