//! The classification `dduf analyze` reports is the engine's: both read
//! one computation of the program's components (`stratify::components`),
//! so the strategy the report gives a derived predicate is the one
//! `MaintenanceEngine` runs, in the typed report and in the JSON alike.
//! The maintenance character (I003) is checked against the semantic
//! oracle: a predicate the report calls monotone loses no tuple to an
//! insertion and gains none from a deletion.
//!
//! Run as its own CI step ("Agreement gate"); seeds are fixed.

mod common;

use common::{gen_churn_txn, gen_txn, RandProgram, RecProgram, ATTACK_GRAPH, INVENTORY};
use dduf::analyze::{analyze_file, AnalyzeOptions};
use dduf::core::rng::Rng;
use dduf::core::upward::semantic;
use dduf::datalog::analysis::classify::Maintenance;
use dduf::datalog::analysis::ProgramReport;
use dduf::datalog::parser::parse_program_lenient;
use dduf::lint::Format;
use dduf::prelude::*;
use std::collections::BTreeMap;

/// The example programs, the benchmark's two programs and seeded random
/// programs of both generators: `(name, source)`.
fn programs() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("examples/programs")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dl"))
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("readable example");
            (p.display().to_string(), src)
        })
        .collect();
    out.sort();
    assert!(out.len() >= 7, "examples/programs went missing: {out:?}");
    out.push(("attack_graph".into(), ATTACK_GRAPH.into()));
    out.push(("inventory".into(), INVENTORY.into()));
    let mut rng = Rng::new(0xC1A55);
    for case in 0..24 {
        out.push((
            format!("rand#{case}"),
            RandProgram::gen(&mut rng).to_source(),
        ));
        out.push((format!("rec#{case}"), RecProgram::gen(&mut rng).to_source()));
    }
    out
}

/// The analyzer's typed report over `src`.
fn report(src: &str) -> ProgramReport {
    let lp = parse_program_lenient(src).expect("parses");
    ProgramReport::build(&lp.output.program, &lp.output.facts)
}

/// `"strategy"` of every row of `dduf analyze --format=json` that has
/// one (the derived predicates), by predicate (`name/arity`); `None` for
/// `null`.
fn json_strategies(json: &str) -> BTreeMap<String, Option<String>> {
    json.split("{\"pred\":\"")
        .skip(1)
        .filter_map(|row| {
            let pred = &row[..row.find('"')?];
            let value = &row[row.find("\"strategy\":")? + "\"strategy\":".len()..];
            let value = &value[..value.find(['}', ','])?];
            Some((
                pred.to_string(),
                value
                    .strip_prefix('"')
                    .map(|v| v.trim_end_matches('"').to_string()),
            ))
        })
        .collect()
}

#[test]
fn report_strategy_is_the_engines() {
    let opts = AnalyzeOptions {
        format: Format::Json,
        path: "gate.dl".into(),
    };
    for (name, src) in programs() {
        let db = parse_database(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let engine = MaintenanceEngine::new(&db).unwrap_or_else(|e| panic!("{name}: {e}"));
        let typed: BTreeMap<Pred, _> = report(&src)
            .preds
            .into_iter()
            .filter_map(|r| Some((r.pred, r.class_info?.strategy)))
            .collect();
        let analyzed = analyze_file("gate.dl", &src, &opts);
        assert_eq!(analyzed.exit_code, 0, "{name}: {}", analyzed.output);
        let json = json_strategies(&analyzed.output);
        let derived: Vec<Pred> = db
            .program()
            .predicates()
            .filter(|&(p, _)| db.program().is_derived(p))
            .map(|(p, _)| p)
            .collect();
        assert_eq!(typed.len(), derived.len(), "{name}: {typed:?}");
        assert_eq!(json.len(), derived.len(), "{name}: {json:?}");
        for p in derived {
            let wanted = engine.strategy(p);
            assert_eq!(typed[&p], wanted, "{name}: typed report on {p}");
            assert_eq!(
                json[&p.to_string()].as_deref(),
                wanted.map(|s| s.name()),
                "{name}: JSON report on {p}"
            );
        }
    }
}

/// I003 against the oracle: split each generated transaction into its
/// insertions and its deletions; neither part may move a predicate the
/// report calls monotone against the part's own direction.
#[test]
fn monotone_predicates_move_only_with_their_base_events() {
    let mut rng = Rng::new(0x1003);
    let mut checked = 0;
    for case in 0..48 {
        let recursive = case % 2 == 1;
        let src = if recursive {
            RecProgram::gen(&mut rng).to_source()
        } else {
            RandProgram::gen(&mut rng).to_source()
        };
        let db = parse_database(&src).expect("generated program parses");
        let old = materialize(&db).expect("stratified");
        let monotone: Vec<Pred> = report(&src)
            .preds
            .into_iter()
            .filter(|r| {
                r.class_info
                    .as_ref()
                    .is_some_and(|c| c.maintenance == Maintenance::Monotone)
            })
            .map(|r| r.pred)
            .collect();
        for _ in 0..6 {
            let txn = if recursive {
                gen_churn_txn(&mut rng, &db)
            } else {
                gen_txn(&mut rng, &db)
            };
            for (kind, against) in [
                (EventKind::Ins, EventKind::Del),
                (EventKind::Del, EventKind::Ins),
            ] {
                let part = txn.events().iter().filter(|e| e.kind == kind);
                let part =
                    Transaction::from_events(&db, part).expect("a part of a valid transaction");
                let res = semantic::interpret(&db, &old, &part).expect("oracle");
                for &p in &monotone {
                    assert!(
                        res.derived.relation(against, p).is_empty(),
                        "case {case}: {kind:?}-only transaction {:?} induces {against:?} on monotone {p}\n{src}",
                        part.events().iter().collect::<Vec<_>>()
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0, "no monotone predicate was generated");
}
