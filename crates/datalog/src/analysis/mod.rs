//! Multi-pass static analysis of deductive database programs.
//!
//! The paper's framework only operates on databases meeting syntactic
//! preconditions: allowedness/range restriction (§2), stratifiable negation,
//! and disjoint base/derived predicates. The strict checks in [`crate::safety`],
//! [`crate::stratify`] and [`crate::schema`] abort on the first violation —
//! right for the engines, wrong for a front end. This module runs the same
//! checks (and several lint-grade ones) as accumulating *passes* over a
//! leniently-built program, producing [`Diagnostic`]s with stable codes and
//! source spans instead of a single `Err`.
//!
//! # Diagnostic codes
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | E000 | error    | syntax error (the source could not be parsed) |
//! | E001 | error    | rule not allowed: variable lacks a positive occurrence (§2) |
//! | E002 | error    | negation through a cycle: program not stratifiable |
//! | E003 | error    | conflicting predicate roles/declarations (base vs derived, §2) |
//! | E004 | error    | fact asserted on a derived predicate (§2) |
//! | W001 | warning  | singleton variable (occurs exactly once in its rule) |
//! | W002 | warning  | predicate declared but never used |
//! | W003 | warning  | derived predicate referenced but never defined |
//! | W004 | warning  | rule unreachable from every view, constraint and condition |
//! | W005 | warning  | negation over a recursive predicate (§3 transition blowup) |
//! | W006 | warning  | predicate used with conflicting arities |
//! | W007 | warning  | column mixes integer and symbolic constants |
//! | W008 | warning  | event domain over an unknown or non-base predicate (§3.1) |
//! | W009 | warning  | cartesian product: body literals form disconnected variable groups |
//! | W010 | warning  | constraint/condition guards a recursive predicate |
//! | I001 | info     | update translation is deterministic (§5.2) |
//! | I002 | info     | update translation is ambiguous (§5.2) |
//! | I003 | info     | maintenance is deletion-sensitive (§3.2) |
//! | I004 | info     | recursive: monitoring maintains the component by DRed |
//!
//! `I0xx` classification facts come from the *report* pipeline behind
//! `dduf analyze` ([`Analyzer::with_report_passes`]); `dduf lint` runs only
//! the error/warning passes, so `--deny-warnings` never trips on a fact.
//!
//! # Example
//!
//! ```
//! use dduf_datalog::analysis::analyze_source;
//!
//! let a = analyze_source("p(X) :- q(X), not r(Y).\n");
//! let codes: Vec<&str> = a.diagnostics.iter().map(|d| d.code).collect();
//! assert!(codes.contains(&"E001")); // Y not allowed
//! ```

pub mod adornment;
pub mod allowedness;
pub mod classify;
pub mod conflicts;
pub mod cost;
pub mod diagnostic;
pub mod events_check;
pub mod predicates;
pub mod reachability;
pub mod recursion;
pub mod report;
pub mod schema_check;
pub mod stratification;
pub mod variables;

pub use adornment::AdornmentInfo;
pub use classify::Classification;
pub use diagnostic::{json_str, Diagnostic, Label, Severity};
pub use report::ProgramReport;

use crate::ast::Atom;
use crate::error::SchemaError;
use crate::parser::parse_program_lenient;
use crate::schema::Program;

/// Everything a pass may inspect: the (leniently built) program, the source
/// facts, and the schema errors collected during the lenient build.
pub struct AnalysisInput<'a> {
    /// The program under analysis.
    pub program: &'a Program,
    /// Ground facts from the source, in order (with spans when parsed).
    pub facts: &'a [Atom],
    /// Schema errors the lenient front end recovered from.
    pub schema_errors: &'a [SchemaError],
}

/// One analysis pass: inspects the input and appends diagnostics.
///
/// Passes never fail — a pass that cannot run on a broken program simply
/// contributes nothing (the breakage is some other pass's diagnostic).
pub trait Pass {
    /// Stable pass name (used in pass listings and docs).
    fn name(&self) -> &'static str;
    /// Runs the pass, appending any findings to `out`.
    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>);
}

/// The pass driver: runs every registered pass and accumulates diagnostics
/// (no fail-fast), then sorts them by source position.
pub struct Analyzer {
    passes: Vec<Box<dyn Pass>>,
}

impl Default for Analyzer {
    fn default() -> Analyzer {
        Analyzer::with_default_passes()
    }
}

impl Analyzer {
    /// An analyzer with no passes registered.
    pub fn new() -> Analyzer {
        Analyzer { passes: Vec::new() }
    }

    /// An analyzer with the full default pipeline: the three checks
    /// migrated from the strict path (schema roles, allowedness,
    /// stratification) followed by the lint passes.
    pub fn with_default_passes() -> Analyzer {
        let mut a = Analyzer::new();
        a.add_pass(Box::new(schema_check::SchemaCheck));
        a.add_pass(Box::new(allowedness::Allowedness));
        a.add_pass(Box::new(stratification::StratificationCheck));
        a.add_pass(Box::new(variables::SingletonVariables));
        a.add_pass(Box::new(predicates::PredicateUse));
        a.add_pass(Box::new(reachability::Reachability));
        a.add_pass(Box::new(recursion::NegatedRecursion));
        a.add_pass(Box::new(conflicts::Conflicts));
        a.add_pass(Box::new(events_check::EventDomains));
        a.add_pass(Box::new(cost::CostShapes));
        a
    }

    /// The `dduf analyze` pipeline: every default pass plus the
    /// update-problem classification (info diagnostics, `I0xx`).
    pub fn with_report_passes() -> Analyzer {
        let mut a = Analyzer::with_default_passes();
        a.add_pass(Box::new(classify::Classify));
        a
    }

    /// Registers a pass at the end of the pipeline.
    pub fn add_pass(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// The registered pass names, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass over `input`, returning all diagnostics sorted by
    /// primary position, severity, then code.
    pub fn run(&self, input: &AnalysisInput<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for pass in &self.passes {
            pass.run(input, &mut out);
        }
        out.sort_by(|a, b| {
            a.position()
                .cmp(&b.position())
                .then(a.severity.cmp(&b.severity))
                .then(a.code.cmp(b.code))
                .then(a.message.cmp(&b.message))
        });
        out
    }
}

/// Result of analyzing a source text end to end.
#[derive(Debug)]
pub struct Analysis {
    /// The leniently-built program, or `None` when the source did not even
    /// parse (then `diagnostics` holds a single `E000`).
    pub program: Option<Program>,
    /// Facts from the source.
    pub facts: Vec<Atom>,
    /// All diagnostics, sorted by position.
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Number of info-severity diagnostics.
    pub fn info_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Info)
            .count()
    }
}

/// Parses `src` leniently and runs the default pipeline over it. Syntax
/// errors become a single `E000` diagnostic; everything else is analyzed
/// with no fail-fast.
pub fn analyze_source(src: &str) -> Analysis {
    analyze_source_with(src, &Analyzer::with_default_passes())
}

/// Like [`analyze_source`], with a caller-supplied pipeline.
pub fn analyze_source_with(src: &str, analyzer: &Analyzer) -> Analysis {
    match parse_program_lenient(src) {
        Err(e) => Analysis {
            program: None,
            facts: Vec::new(),
            diagnostics: vec![Diagnostic::error("E000", e.message.clone())
                .with_primary(Label::new(e.span, "parsing stopped here"))],
        },
        Ok(lp) => {
            let input = AnalysisInput {
                program: &lp.output.program,
                facts: &lp.output.facts,
                schema_errors: &lp.schema_errors,
            };
            let diagnostics = analyzer.run(&input);
            Analysis {
                program: Some(lp.output.program),
                facts: lp.output.facts,
                diagnostics,
            }
        }
    }
}

/// The stable diagnostic code table: `(code, one-line description)`.
/// Kept in one place so the CLI, README and tests agree.
pub const CODES: &[(&str, &str)] = &[
    ("E000", "syntax error: the source could not be parsed"),
    (
        "E001",
        "rule is not allowed: a variable has no positive occurrence (§2)",
    ),
    (
        "E002",
        "program is not stratifiable: negation through a cycle",
    ),
    ("E003", "conflicting predicate roles or declarations (§2)"),
    ("E004", "fact asserted on a derived predicate (§2)"),
    (
        "W001",
        "singleton variable: occurs exactly once in its rule",
    ),
    ("W002", "predicate declared but never used"),
    ("W003", "derived predicate referenced but never defined"),
    (
        "W004",
        "rule unreachable from every view, constraint and condition",
    ),
    (
        "W005",
        "negation over a recursive predicate (§3 transition-rule blowup)",
    ),
    ("W006", "predicate used with conflicting arities"),
    ("W007", "column mixes integer and symbolic constants"),
    (
        "W008",
        "event domain over an unknown or non-base predicate (§3.1)",
    ),
    (
        "W009",
        "cartesian product: positive body literals form disconnected variable groups",
    ),
    (
        "W010",
        "constraint or condition guards a recursive predicate (monitoring maintains it by DRed)",
    ),
    (
        "I001",
        "update translation is deterministic: one base translation per request (§5.2)",
    ),
    (
        "I002",
        "update translation is ambiguous: alternative base translations exist (§5.2)",
    ),
    (
        "I003",
        "maintenance is deletion-sensitive: the definition passes through negation (§3.2)",
    ),
    (
        "I004",
        "recursive predicate: monitoring maintains the component by DRed (delete and rederive)",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_program_has_no_diagnostics() {
        let a = analyze_source(
            "#cond needy/1.
             la(ana). works(ben). la(ben).
             unemp(X) :- la(X), not works(X).
             needy(X) :- la(X), not works(X).
             :- unemp(X), not works(X).",
        );
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert!(a.program.is_some());
    }

    #[test]
    fn syntax_error_becomes_e000() {
        let a = analyze_source("p(a)\nq(b).");
        assert_eq!(a.diagnostics.len(), 1);
        assert_eq!(a.diagnostics[0].code, "E000");
        assert!(a.program.is_none());
    }

    #[test]
    fn broken_program_yields_multiple_diagnostics_in_one_run() {
        // E001 (Z not allowed) + W001 (singleton W) + E003 (base in head):
        // all reported at once, no fail-fast.
        let a = analyze_source(
            "#base works/1.
             works(X) :- not emp(Z), la(X).
             v(X) :- la(X), q(W).",
        );
        let codes: Vec<&str> = a.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"E001"), "{codes:?}");
        assert!(codes.contains(&"E003"), "{codes:?}");
        assert!(codes.contains(&"W001"), "{codes:?}");
        assert!(a.error_count() >= 2);
        assert!(a.warning_count() >= 1);
    }

    #[test]
    fn diagnostics_sorted_by_position() {
        let a = analyze_source("v(X) :- la(X), q(W).\nw(X) :- la(X), q(Z).\n");
        let positions: Vec<(u32, u32)> = a.diagnostics.iter().map(|d| d.position()).collect();
        let mut sorted = positions.clone();
        sorted.sort();
        assert_eq!(positions, sorted);
    }

    #[test]
    fn default_pipeline_has_ten_passes() {
        assert_eq!(Analyzer::with_default_passes().pass_names().len(), 10);
    }

    #[test]
    fn report_pipeline_adds_classification() {
        let names = Analyzer::with_report_passes().pass_names();
        assert_eq!(names.len(), 11);
        assert_eq!(*names.last().unwrap(), "classification");
    }

    #[test]
    fn codes_table_is_consistent() {
        for (code, _) in CODES {
            assert!(
                code.starts_with('E') || code.starts_with('W') || code.starts_with('I'),
                "{code}"
            );
            assert_eq!(code.len(), 4);
        }
    }

    #[test]
    fn info_diagnostics_counted_separately() {
        let a = analyze_source_with("v(X) :- q(X), r(W).\n", &Analyzer::with_report_passes());
        assert!(a.info_count() >= 1, "{:?}", a.diagnostics);
        // W001 (singleton `W`) + W009 (cross product); infos must not
        // inflate the warning count.
        assert_eq!(a.warning_count(), 2, "{:?}", a.diagnostics);
        assert_eq!(a.error_count(), 0);
    }
}
