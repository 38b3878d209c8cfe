//! The `dduf analyze` verb: run the semantic analyses over a program file
//! and print the per-predicate report — adornments, the maintenance
//! engine's strategy, and the update-problem classification — alongside
//! any diagnostics.
//!
//! ```sh
//! dduf analyze db.dl
//! dduf analyze --format=json db.dl
//! ```
//!
//! Exit codes: `0` — analyzed (warnings and info facts do not fail);
//! `1` — at least one error; `2` — usage or I/O error. The JSON shape is
//! covered by golden tests (`tests/golden_json.rs`), so downstream tooling
//! can rely on it.

use crate::lint::Format;
use dduf_datalog::analysis::{analyze_source_with, json_str, Analysis, Analyzer, ProgramReport};

/// Parsed `dduf analyze` options.
#[derive(Clone, Debug)]
pub struct AnalyzeOptions {
    /// Report format.
    pub format: Format,
    /// The program file to analyze.
    pub path: String,
}

/// Usage string for the analyze verb.
pub const ANALYZE_USAGE: &str = "usage: dduf analyze [--format=text|json] <database.dl>";

impl AnalyzeOptions {
    /// Parses the arguments after the `analyze` verb.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<AnalyzeOptions, String> {
        let mut format = Format::Text;
        let mut path = None;
        for arg in args {
            match arg.as_str() {
                "--format=text" => format = Format::Text,
                "--format=json" => format = Format::Json,
                s if s.starts_with("--") => {
                    return Err(format!("unknown flag `{s}`\n{ANALYZE_USAGE}"));
                }
                _ if path.is_some() => {
                    return Err(format!("more than one file given\n{ANALYZE_USAGE}"));
                }
                _ => path = Some(arg),
            }
        }
        let Some(path) = path else {
            return Err(ANALYZE_USAGE.to_string());
        };
        Ok(AnalyzeOptions { format, path })
    }
}

/// A finished analyze run: what to print and how to exit.
pub struct AnalyzeReport {
    /// The rendered report (text or JSON).
    pub output: String,
    /// The process exit code (0 ok, 1 errors, 2 I/O).
    pub exit_code: i32,
}

/// Analyzes already-loaded source. `path` is used only for display.
pub fn analyze_file(path: &str, src: &str, opts: &AnalyzeOptions) -> AnalyzeReport {
    let analysis = analyze_source_with(src, &Analyzer::with_report_passes());
    let report = analysis
        .program
        .as_ref()
        .map(|p| ProgramReport::build(p, &analysis.facts));
    let failed = analysis.error_count() > 0;
    let output = match opts.format {
        Format::Text => render_text(path, src, &analysis, report.as_ref()),
        Format::Json => render_json(path, &analysis, report.as_ref()),
    };
    AnalyzeReport {
        output,
        exit_code: if failed { 1 } else { 0 },
    }
}

fn render_text(
    path: &str,
    src: &str,
    analysis: &Analysis,
    report: Option<&ProgramReport>,
) -> String {
    let mut out = String::new();
    if let Some(r) = report {
        out.push_str(&format!("{path}:\n"));
        out.push_str(&r.render_text());
        if !analysis.diagnostics.is_empty() {
            out.push('\n');
        }
    }
    for d in &analysis.diagnostics {
        out.push_str(&d.render(path, src));
        out.push('\n');
    }
    let (e, w, i) = (
        analysis.error_count(),
        analysis.warning_count(),
        analysis.info_count(),
    );
    out.push_str(&format!(
        "{path}: {e} error{}, {w} warning{}, {i} classification{}\n",
        if e == 1 { "" } else { "s" },
        if w == 1 { "" } else { "s" },
        if i == 1 { "" } else { "s" },
    ));
    out
}

fn render_json(path: &str, analysis: &Analysis, report: Option<&ProgramReport>) -> String {
    let diags: Vec<String> = analysis.diagnostics.iter().map(|d| d.to_json()).collect();
    let report = report.map_or("null".to_string(), |r| r.render_json());
    format!(
        "{{\"file\":{},\"report\":{},\"diagnostics\":[{}],\"errors\":{},\"warnings\":{},\"infos\":{}}}\n",
        json_str(path),
        report,
        diags.join(","),
        analysis.error_count(),
        analysis.warning_count(),
        analysis.info_count(),
    )
}

/// Full `dduf analyze` entry point: parse flags, read the file, print the
/// report to stdout (or the failure to stderr), return the exit code.
pub fn run(args: impl IntoIterator<Item = String>) -> i32 {
    let opts = match AnalyzeOptions::parse(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("dduf analyze: {msg}");
            return 2;
        }
    };
    let src = match std::fs::read_to_string(&opts.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dduf analyze: cannot read {}: {e}", opts.path);
            return 2;
        }
    };
    let report = analyze_file(&opts.path, &src, &opts);
    print!("{}", report.output);
    report.exit_code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(format: Format) -> AnalyzeOptions {
        AnalyzeOptions {
            format,
            path: "t.dl".into(),
        }
    }

    #[test]
    fn parse_flags_and_file() {
        let o = AnalyzeOptions::parse(["--format=json", "db.dl"].map(String::from)).unwrap();
        assert_eq!(o.format, Format::Json);
        assert_eq!(o.path, "db.dl");
        assert!(AnalyzeOptions::parse([]).is_err());
        assert!(AnalyzeOptions::parse(["--bogus".into(), "x.dl".into()]).is_err());
        assert!(AnalyzeOptions::parse(["a.dl".into(), "b.dl".into()]).is_err());
    }

    #[test]
    fn clean_program_reports_and_exits_zero() {
        let r = analyze_file(
            "t.dl",
            "la(ana). unemp(X) :- la(X), not works(X).\n",
            &opts(Format::Text),
        );
        assert_eq!(r.exit_code, 0);
        assert!(r.output.contains("unemp/1"), "{}", r.output);
        assert!(r.output.contains("deletion-sensitive"), "{}", r.output);
        assert!(r.output.contains("I002"), "{}", r.output);
    }

    #[test]
    fn classifications_do_not_fail_the_run() {
        let r = analyze_file("t.dl", "v(X) :- q(X).\n", &opts(Format::Text));
        assert_eq!(r.exit_code, 0, "{}", r.output);
        assert!(r.output.contains("I001"), "{}", r.output);
    }

    #[test]
    fn errors_exit_one_and_json_carries_the_report() {
        let r = analyze_file(
            "t.dl",
            "v(X) :- la(X), not other(Y).\n", // E001: Y unbound
            &opts(Format::Json),
        );
        assert_eq!(r.exit_code, 1);
        assert!(r.output.contains("\"code\":\"E001\""), "{}", r.output);
        // Parse errors leave no program: the report is null, not absent.
        let r = analyze_file("t.dl", "v(X :-\n", &opts(Format::Json));
        assert_eq!(r.exit_code, 1);
        assert!(r.output.contains("\"report\":null"), "{}", r.output);
    }

    #[test]
    fn json_shape_has_report_and_counts() {
        let r = analyze_file("t.dl", "v(X) :- q(X).\n", &opts(Format::Json));
        assert!(r.output.starts_with("{\"file\":\"t.dl\""), "{}", r.output);
        assert!(r.output.contains("\"report\":{"), "{}", r.output);
        assert!(r.output.contains("\"predicates\":["), "{}", r.output);
        assert!(r.output.contains("\"infos\":"), "{}", r.output);
    }
}
