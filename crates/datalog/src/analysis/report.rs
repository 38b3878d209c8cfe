//! The machine-readable [`ProgramReport`]: everything the semantic
//! analyses (adornment inference, update classification) decided about a
//! program, in one table keyed by predicate. Both read the program's
//! [`components`], so the strategy the report gives a predicate is the one
//! the maintenance engine runs. The `dduf analyze` verb renders it as text
//! or JSON; the JSON shape is covered by golden tests so downstream
//! tooling can rely on it.

use crate::ast::{Atom, Pred};
use crate::schema::{DerivedRole, Program, Role};
use crate::stratify::components;
use std::collections::{BTreeMap, BTreeSet};

use super::adornment::AdornmentInfo;
use super::classify::{Classification, Maintenance, PredClass, Translation};
use super::json_str;

/// One predicate's row of the report.
#[derive(Clone, Debug)]
pub struct PredReport {
    /// The predicate.
    pub pred: Pred,
    /// `"base"`, `"view"`, `"constraint"` or `"condition"`.
    pub role: &'static str,
    /// Defining rules.
    pub rules: usize,
    /// EDB facts (base predicates; 0 for derived).
    pub facts: usize,
    /// Inferred probe signatures (ascending bound-column sets).
    pub sigs: Vec<Vec<usize>>,
    /// Inferred adornment strings (`'b'`/`'f'` per column).
    pub patterns: Vec<String>,
    /// Update-problem classification (derived predicates only).
    pub class_info: Option<PredClass>,
}

/// The full analysis report for one program.
#[derive(Clone, Debug, Default)]
pub struct ProgramReport {
    /// Per-predicate rows, in predicate order.
    pub preds: Vec<PredReport>,
    /// Plans the adornment inference replayed.
    pub plans_considered: u64,
    /// Whether the program is recursive anywhere.
    pub recursive: bool,
}

impl ProgramReport {
    /// Runs the semantic analyses over `program` (+ EDB `facts`) and
    /// assembles the table.
    pub fn build(program: &Program, facts: &[Atom]) -> ProgramReport {
        let components = components(program);
        let mut counts: BTreeMap<Pred, BTreeSet<&Atom>> = BTreeMap::new();
        for f in facts {
            counts.entry(f.pred).or_default().insert(f);
        }
        let counts: BTreeMap<Pred, usize> = counts.into_iter().map(|(p, s)| (p, s.len())).collect();
        let adornments = AdornmentInfo::infer(program, &components);
        let classes = Classification::compute(program, &components);

        let mut preds: BTreeMap<Pred, Role> = program.predicates().collect();
        for &p in counts.keys() {
            preds.entry(p).or_insert(Role::Base);
        }
        let mut rows: Vec<PredReport> = preds
            .into_iter()
            .map(|(pred, role)| PredReport {
                pred,
                role: role_name(role),
                rules: program.rules_for(pred).len(),
                facts: counts.get(&pred).copied().unwrap_or(0),
                sigs: adornments
                    .sigs
                    .get(&pred)
                    .map(|s| s.iter().map(|c| c.to_vec()).collect())
                    .unwrap_or_default(),
                patterns: adornments
                    .patterns
                    .get(&pred)
                    .map(|s| s.iter().cloned().collect())
                    .unwrap_or_default(),
                class_info: classes.preds.get(&pred).cloned(),
            })
            .collect();
        // Pred's Ord is interning order; the report sorts by name so the
        // output is independent of parse order.
        rows.sort_by(|a, b| {
            (a.pred.name.as_str(), a.pred.arity).cmp(&(b.pred.name.as_str(), b.pred.arity))
        });
        ProgramReport {
            preds: rows,
            plans_considered: adornments.plans_considered,
            recursive: components.iter().any(|c| c.recursive),
        }
    }

    /// Renders the table as aligned text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:<10} {:>5} {:<8} {:<18} {}\n",
            "predicate", "role", "rules", "strategy", "patterns", "classification"
        ));
        for r in &self.preds {
            let strategy = r.class_info.as_ref().and_then(|c| c.strategy);
            let classification = r.class_info.as_ref().map_or(String::new(), summarize);
            out.push_str(&format!(
                "{:<16} {:<10} {:>5} {:<8} {:<18} {}\n",
                r.pred.to_string(),
                r.role,
                r.rules,
                strategy.map_or("", |s| s.name()),
                r.patterns.join(","),
                classification
            ));
        }
        out.push_str(&format!(
            "{} plans considered by adornment inference{}\n",
            self.plans_considered,
            if self.recursive {
                "; program is recursive"
            } else {
                ""
            }
        ));
        out
    }

    /// Renders the report as one JSON object (hand-rolled, no serde).
    pub fn render_json(&self) -> String {
        let rows: Vec<String> = self.preds.iter().map(pred_json).collect();
        format!(
            "{{\"predicates\":[{}],\"plans_considered\":{},\"recursive\":{}}}",
            rows.join(","),
            self.plans_considered,
            self.recursive
        )
    }
}

fn role_name(role: Role) -> &'static str {
    match role {
        Role::Base => "base",
        Role::Derived(DerivedRole::View) => "view",
        Role::Derived(DerivedRole::Ic) => "constraint",
        Role::Derived(DerivedRole::Cond) => "condition",
    }
}

/// Compact one-liner for the text table.
fn summarize(c: &PredClass) -> String {
    let t = match &c.translation {
        Translation::Deterministic => "deterministic".to_string(),
        Translation::Ambiguous(r) => format!(
            "ambiguous({})",
            r.iter().map(|a| a.name()).collect::<Vec<_>>().join(",")
        ),
    };
    let m = match c.maintenance {
        Maintenance::Monotone => "monotone",
        Maintenance::DeletionSensitive => "deletion-sensitive",
    };
    format!("{t}, {m}")
}

fn pred_json(r: &PredReport) -> String {
    let mut s = String::from("{");
    s.push_str(&format!("\"pred\":{},", json_str(&r.pred.to_string())));
    s.push_str(&format!("\"role\":{},", json_str(r.role)));
    s.push_str(&format!("\"rules\":{},", r.rules));
    s.push_str(&format!("\"facts\":{},", r.facts));
    let sigs: Vec<String> = r
        .sigs
        .iter()
        .map(|cols| {
            format!(
                "[{}]",
                cols.iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )
        })
        .collect();
    s.push_str(&format!("\"sigs\":[{}],", sigs.join(",")));
    let pats: Vec<String> = r.patterns.iter().map(|p| json_str(p)).collect();
    s.push_str(&format!("\"patterns\":[{}]", pats.join(",")));
    if let Some(c) = &r.class_info {
        match &c.translation {
            Translation::Deterministic => {
                s.push_str(",\"translation\":\"deterministic\",\"ambiguity\":[]");
            }
            Translation::Ambiguous(reasons) => {
                let why: Vec<String> = reasons.iter().map(|a| json_str(a.name())).collect();
                s.push_str(&format!(
                    ",\"translation\":\"ambiguous\",\"ambiguity\":[{}]",
                    why.join(",")
                ));
            }
        }
        s.push_str(&format!(
            ",\"maintenance\":{}",
            json_str(match c.maintenance {
                Maintenance::Monotone => "monotone",
                Maintenance::DeletionSensitive => "deletion_sensitive",
            })
        ));
        s.push_str(&format!(
            ",\"strategy\":{}",
            c.strategy
                .map_or("null".to_string(), |s| json_str(s.name()))
        ));
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program_lenient;

    fn report(src: &str) -> ProgramReport {
        let lp = parse_program_lenient(src).unwrap();
        ProgramReport::build(&lp.output.program, &lp.output.facts)
    }

    #[test]
    fn rows_cover_base_and_derived_predicates() {
        let r = report(
            "la(ana). la(ben). works(ben).\n\
             unemp(X) :- la(X), not works(X).\n",
        );
        let names: Vec<String> = r.preds.iter().map(|p| p.pred.to_string()).collect();
        assert_eq!(names, ["la/1", "unemp/1", "works/1"]);
        let la = &r.preds[0];
        assert_eq!((la.role, la.facts), ("base", 2));
        assert!(la.class_info.is_none());
        let unemp = &r.preds[1];
        assert_eq!(unemp.role, "view");
        assert!(unemp.class_info.is_some());
    }

    #[test]
    fn json_shape_is_stable() {
        let j = report("v(X) :- q(X).\n").render_json();
        assert!(j.starts_with("{\"predicates\":["), "{j}");
        assert!(j.contains("\"pred\":\"v/1\""), "{j}");
        assert!(j.contains("\"translation\":\"deterministic\""), "{j}");
        assert!(j.contains("\"plans_considered\":"), "{j}");
        assert!(j.ends_with("}"), "{j}");
    }

    #[test]
    fn text_table_mentions_every_predicate() {
        let t = report("v(X) :- q(X), not r(X).\n").render_text();
        for name in ["predicate", "v/1", "q/1", "r/1", "plans considered"] {
            assert!(t.contains(name), "missing {name} in:\n{t}");
        }
    }
}
