//! Error types for the datalog substrate.

use crate::ast::{Pred, Rule, Var};
use std::fmt;

/// Position of an error in source text (1-based line/column).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors raised while parsing source text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Where the error occurred.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Errors raised while assembling or validating a database schema/program.
#[derive(Clone, PartialEq, Debug)]
pub enum SchemaError {
    /// A fact was asserted on a predicate that also has deductive rules.
    /// §2: base predicates appear only in the extensional part.
    FactOnDerivedPredicate(Pred),
    /// A rule is not *allowed* (range-restricted): `var` has no occurrence
    /// in a positive body condition of `rule` (§2).
    NotAllowed {
        /// The offending rule.
        rule: Rule,
        /// The variable with no positive occurrence.
        var: Var,
    },
    /// The program cannot be stratified: `pred` depends negatively on
    /// itself through a cycle.
    NotStratifiable(Pred),
    /// A predicate is used with two different arities or conflicting roles.
    RoleConflict {
        /// The predicate in conflict.
        pred: Pred,
        /// Description of the conflict.
        detail: String,
    },
    /// A tuple's arity does not match its predicate's declared arity.
    ArityMismatch {
        /// The predicate.
        pred: Pred,
        /// The arity actually supplied.
        got: usize,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::FactOnDerivedPredicate(p) => {
                write!(f, "fact asserted on derived predicate {p}; base and derived predicates are disjoint (§2)")
            }
            SchemaError::NotAllowed { rule, var } => {
                write!(
                    f,
                    "rule `{rule}` is not allowed: variable {var} has no occurrence in a positive condition"
                )
            }
            SchemaError::NotStratifiable(p) => {
                write!(
                    f,
                    "program is not stratifiable: {p} depends negatively on itself"
                )
            }
            SchemaError::RoleConflict { pred, detail } => {
                write!(f, "conflicting declarations for {pred}: {detail}")
            }
            SchemaError::ArityMismatch { pred, got } => {
                write!(f, "arity mismatch: {pred} used with {got} arguments")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// Errors raised during evaluation.
#[derive(Clone, PartialEq, Debug)]
pub enum EvalError {
    /// Evaluation referenced a predicate unknown to the database.
    UnknownPredicate(Pred),
    /// The iteration/derivation limit was exceeded (guards runaway
    /// fixpoints in misconfigured callers; the fixpoint itself always
    /// terminates on finite domains).
    LimitExceeded {
        /// What limit was exceeded.
        what: &'static str,
        /// The configured limit.
        limit: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownPredicate(p) => write!(f, "unknown predicate {p}"),
            EvalError::LimitExceeded { what, limit } => {
                write!(f, "evaluation limit exceeded: {what} > {limit}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Any error from the datalog substrate.
#[derive(Clone, PartialEq, Debug)]
pub enum Error {
    /// Parsing failed.
    Parse(ParseError),
    /// Schema/program validation failed.
    Schema(SchemaError),
    /// Evaluation failed.
    Eval(EvalError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "{e}"),
            Error::Schema(e) => write!(f, "{e}"),
            Error::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::Schema(e) => Some(e),
            Error::Eval(e) => Some(e),
        }
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Error {
        Error::Parse(e)
    }
}

impl From<SchemaError> for Error {
    fn from(e: SchemaError) -> Error {
        Error::Schema(e)
    }
}

impl From<EvalError> for Error {
    fn from(e: EvalError) -> Error {
        Error::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Literal, Term};

    #[test]
    fn display_not_allowed() {
        let rule = Rule::new(
            Atom::new("p", vec![Term::var("X")]),
            vec![Literal::neg(Atom::new("q", vec![Term::var("X")]))],
        );
        let err = SchemaError::NotAllowed {
            rule,
            var: Var::new("X"),
        };
        let s = err.to_string();
        assert!(s.contains("not allowed"), "{s}");
        assert!(s.contains('X'), "{s}");
    }

    #[test]
    fn error_source_chain() {
        use std::error::Error as _;
        let e = Error::from(EvalError::UnknownPredicate(Pred::new("p", 1)));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("p/1"));
    }

    #[test]
    fn span_display() {
        assert_eq!(Span { line: 3, col: 7 }.to_string(), "3:7");
    }
}
