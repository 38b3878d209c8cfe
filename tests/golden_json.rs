//! Golden tests for the machine-readable output of `dduf lint` and
//! `dduf analyze`. The JSON these verbs print is a public interface —
//! editor integrations and CI scripts parse it — so its exact shape is
//! pinned here character for character. If one of these tests fails
//! because of an intentional format change, update the expected string
//! AND mention the change in README.md; downstream parsers need to know.

use dduf::analyze::{analyze_file, AnalyzeOptions};
use dduf::lint::{lint_source, Format, LintOptions};

const CLEAN: &str = "\
% golden fixture
la(dolors). la(joan). works(joan).
unemp(X) :- la(X), not works(X).
";

const WARNINGS: &str = "\
q(a). r(b).
v(X) :- q(X), r(W).
";

fn lint_opts() -> LintOptions {
    LintOptions {
        deny_warnings: false,
        format: Format::Json,
        path: "golden.dl".into(),
    }
}

fn analyze_opts() -> AnalyzeOptions {
    AnalyzeOptions {
        format: Format::Json,
        path: "golden.dl".into(),
    }
}

#[test]
fn lint_json_clean_program() {
    let r = lint_source("golden.dl", CLEAN, &lint_opts());
    assert_eq!(r.exit_code, 0);
    assert_eq!(
        r.output,
        "{\"file\":\"golden.dl\",\"diagnostics\":[],\"errors\":0,\"warnings\":0}\n"
    );
}

#[test]
fn lint_json_warnings() {
    let r = lint_source("golden.dl", WARNINGS, &lint_opts());
    assert_eq!(r.exit_code, 0);
    assert_eq!(
        r.output,
        concat!(
            "{\"file\":\"golden.dl\",\"diagnostics\":[",
            "{\"code\":\"W009\",\"severity\":\"warning\",",
            "\"message\":\"cartesian product: the positive body literals of this `v` rule form 2 disconnected variable groups\",",
            "\"spans\":[",
            "{\"line\":2,\"col\":1,\"width\":1,\"primary\":true,\"label\":\"rule whose body is a cross product\"},",
            "{\"line\":2,\"col\":9,\"width\":1,\"primary\":false,\"label\":\"independent group starts here\"},",
            "{\"line\":2,\"col\":15,\"width\":1,\"primary\":false,\"label\":\"independent group starts here\"}",
            "],\"help\":\"join the groups through a shared variable, or split the rule\"},",
            "{\"code\":\"W001\",\"severity\":\"warning\",",
            "\"message\":\"singleton variable `W` in rule for `v/1`\",",
            "\"spans\":[",
            "{\"line\":2,\"col\":15,\"width\":1,\"primary\":true,\"label\":\"`W` occurs only here\"}",
            "],\"help\":\"`W` joins with nothing; use `_` if a don't-care was intended\"}",
            "],\"errors\":0,\"warnings\":2}\n"
        )
    );
}

#[test]
fn analyze_json_clean_program() {
    let r = analyze_file("golden.dl", CLEAN, &analyze_opts());
    assert_eq!(r.exit_code, 0);
    assert_eq!(
        r.output,
        concat!(
            "{\"file\":\"golden.dl\",\"report\":{\"predicates\":[",
            "{\"pred\":\"la/1\",\"role\":\"base\",\"rules\":0,\"facts\":2,",
            "\"sigs\":[[0]],\"patterns\":[\"b\",\"f\"]},",
            "{\"pred\":\"unemp/1\",\"role\":\"view\",\"rules\":1,\"facts\":0,",
            "\"sigs\":[],\"patterns\":[\"b\"],",
            "\"translation\":\"ambiguous\",\"ambiguity\":[\"negation\"],",
            "\"maintenance\":\"deletion_sensitive\",\"strategy\":\"counting\"},",
            "{\"pred\":\"works/1\",\"role\":\"base\",\"rules\":0,\"facts\":1,",
            "\"sigs\":[],\"patterns\":[\"b\",\"f\"]}",
            "],\"plans_considered\":4,\"recursive\":false},",
            "\"diagnostics\":[",
            "{\"code\":\"I002\",\"severity\":\"info\",",
            "\"message\":\"view `unemp`: update translation is ambiguous (negation) — requests expand to alternative base transactions (§5.2)\",",
            "\"spans\":[{\"line\":3,\"col\":1,\"width\":5,\"primary\":true,\"label\":\"defined here\"}]},",
            "{\"code\":\"I003\",\"severity\":\"info\",",
            "\"message\":\"view `unemp`: maintenance is deletion-sensitive — its definition passes through negation, so insertions can induce deletions (§3.2)\",",
            "\"spans\":[{\"line\":3,\"col\":1,\"width\":5,\"primary\":true,\"label\":\"defined here\"}]}",
            "],\"errors\":0,\"warnings\":0,\"infos\":2}\n"
        )
    );
}

const RECURSIVE: &str = "\
e(a, b). e(b, c).
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
";

const GUARDED: &str = "\
e(a, b). e(b, c).
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
:- tc(X, X).
";

/// A recursive view is maintained by DRed over its component
/// (`"strategy":"dred"`, I004).
#[test]
fn analyze_json_recursive_program() {
    let r = analyze_file("golden.dl", RECURSIVE, &analyze_opts());
    assert_eq!(r.exit_code, 0);
    assert_eq!(
        r.output,
        concat!(
            "{\"file\":\"golden.dl\",\"report\":{\"predicates\":[",
            "{\"pred\":\"e/2\",\"role\":\"base\",\"rules\":0,\"facts\":2,",
            "\"sigs\":[[0],[0,1],[1]],\"patterns\":[\"bb\",\"bf\",\"fb\",\"ff\"]},",
            "{\"pred\":\"tc/2\",\"role\":\"view\",\"rules\":2,\"facts\":0,",
            "\"sigs\":[[0],[0,1]],\"patterns\":[\"bb\",\"bf\",\"ff\"],",
            "\"translation\":\"ambiguous\",\"ambiguity\":[\"multiple_rules\",\"existential_variables\"],",
            "\"maintenance\":\"monotone\",\"strategy\":\"dred\"}",
            "],\"plans_considered\":8,\"recursive\":true},",
            "\"diagnostics\":[",
            "{\"code\":\"I002\",\"severity\":\"info\",",
            "\"message\":\"view `tc`: update translation is ambiguous (multiple_rules, existential_variables) — requests expand to alternative base transactions (§5.2)\",",
            "\"spans\":[{\"line\":2,\"col\":1,\"width\":2,\"primary\":true,\"label\":\"defined here\"}]},",
            "{\"code\":\"I004\",\"severity\":\"info\",",
            "\"message\":\"view `tc`: recursive — monitoring maintains the component by DRed, deleting and rederiving from the changed tuples (DESIGN.md §15)\",",
            "\"spans\":[{\"line\":2,\"col\":1,\"width\":2,\"primary\":true,\"label\":\"defined here\"}]}",
            "],\"errors\":0,\"warnings\":0,\"infos\":2}\n"
        )
    );
}

const NOT_STRATIFIABLE: &str = "\
p(X) :- b(X), not q(X).
q(X) :- p(X).
";

/// The engine refuses a program whose component negates itself, so the
/// report gives its members no strategy (`"strategy":null`) and no I004.
#[test]
fn analyze_json_not_stratifiable_has_no_strategy() {
    let r = analyze_file("golden.dl", NOT_STRATIFIABLE, &analyze_opts());
    assert_eq!(r.exit_code, 1);
    let report = concat!(
        "{\"file\":\"golden.dl\",\"report\":{\"predicates\":[",
        "{\"pred\":\"b/1\",\"role\":\"base\",\"rules\":0,\"facts\":0,",
        "\"sigs\":[[0]],\"patterns\":[\"b\",\"f\"]},",
        "{\"pred\":\"p/1\",\"role\":\"view\",\"rules\":1,\"facts\":0,",
        "\"sigs\":[[0]],\"patterns\":[\"b\",\"f\"],",
        "\"translation\":\"ambiguous\",\"ambiguity\":[\"negation\"],",
        "\"maintenance\":\"deletion_sensitive\",\"strategy\":null},",
        "{\"pred\":\"q/1\",\"role\":\"view\",\"rules\":1,\"facts\":0,",
        "\"sigs\":[],\"patterns\":[\"b\",\"f\"],",
        "\"translation\":\"deterministic\",\"ambiguity\":[],",
        "\"maintenance\":\"deletion_sensitive\",\"strategy\":null}",
        "],\"plans_considered\":8,\"recursive\":true},",
        "\"diagnostics\":["
    );
    assert!(r.output.starts_with(report), "{}", r.output);
    assert!(r.output.contains(concat!(
        "{\"code\":\"E002\",\"severity\":\"error\",",
        "\"message\":\"program is not stratifiable: `p`, `q` depend negatively on each other\","
    )));
    assert!(!r.output.contains("\"code\":\"I004\""), "{}", r.output);
    assert!(r
        .output
        .ends_with("\"errors\":1,\"warnings\":0,\"infos\":4}\n"));
}

/// A constraint over a recursive predicate (W010) costs DRed over the
/// component on every relevant update.
#[test]
fn lint_json_recursive_guard() {
    let r = lint_source("golden.dl", GUARDED, &lint_opts());
    assert_eq!(r.exit_code, 0);
    assert_eq!(
        r.output,
        concat!(
            "{\"file\":\"golden.dl\",\"diagnostics\":[",
            "{\"code\":\"W010\",\"severity\":\"warning\",",
            "\"message\":\"constraint or condition `ic1` guards recursive `tc`: every relevant update maintains the recursive component by DRed before the guard is read\",",
            "\"spans\":[{\"line\":4,\"col\":4,\"width\":2,\"primary\":true,\"label\":\"recursive predicate guarded here\"}],",
            "\"help\":\"bound the recursion (materialize a non-recursive summary) if the guard must stay cheap to monitor\"}",
            "],\"errors\":0,\"warnings\":1}\n"
        )
    );
}

#[test]
fn analyze_json_parse_failure_keeps_shape() {
    let r = analyze_file("golden.dl", "v(X :-\n", &analyze_opts());
    assert_eq!(r.exit_code, 1);
    // Unparsable input: report is null, the E000 diagnostic carries the
    // parse error, counts stay present.
    assert!(r
        .output
        .starts_with("{\"file\":\"golden.dl\",\"report\":null,"));
    assert!(r.output.contains("\"code\":\"E000\""), "{}", r.output);
    assert!(r.output.trim_end().ends_with("\"warnings\":0,\"infos\":0}"));
}
