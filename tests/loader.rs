//! The loader reads a source in one pass from text to relations: it
//! interns each distinct string once and builds each relation from one
//! sorted run. These tests hold it to the fact-by-fact load it replaced —
//! the same relations, the same errors at the same `line:col`, and the
//! same interning order.

mod common;

use common::{RandProgram, RecProgram};
use dduf::core::rng::Rng;
use dduf::datalog::parser::{parse_database, parse_events, parse_program_lenient};
use dduf::datalog::pretty;
use dduf::datalog::symbol::Sym;
use dduf::prelude::*;

/// The database `src` describes, built fact by fact with `assert_fact`
/// from the analysis front end's atoms.
fn fact_by_fact(src: &str) -> std::result::Result<Database, String> {
    let parsed = parse_program_lenient(src).map_err(|e| e.to_string())?;
    let mut db = Database::new(parsed.output.program);
    for atom in &parsed.output.facts {
        db.assert_fact(atom).map_err(|e| e.to_string())?;
    }
    Ok(db)
}

/// `parse_database(src)` holds what the fact-by-fact load holds: the
/// same program, predicates and tuples.
fn assert_loads_alike(name: &str, src: &str) {
    let loaded = parse_database(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let reference = fact_by_fact(src).unwrap();
    assert_eq!(
        pretty::program(loaded.program()),
        pretty::program(reference.program()),
        "{name}"
    );
    let preds: Vec<Pred> = loaded.extensional_predicates().collect();
    assert_eq!(
        preds,
        reference.extensional_predicates().collect::<Vec<_>>(),
        "{name}"
    );
    for pred in preds {
        assert_eq!(
            loaded.relation(pred),
            reference.relation(pred),
            "{name}: {pred}"
        );
        let tuples: Vec<&Tuple> = loaded.relation(pred).iter().collect();
        assert!(tuples.windows(2).all(|w| w[0] < w[1]), "{name}: {pred}");
    }
    assert_eq!(loaded.fact_count(), reference.fact_count(), "{name}");
}

#[test]
fn every_example_program_loads_as_fact_by_fact() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "dl") {
            let src = std::fs::read_to_string(&path).unwrap();
            assert_loads_alike(&path.display().to_string(), &src);
            seen += 1;
        }
    }
    assert!(seen >= 7, "only {seen} example programs");
}

#[test]
fn random_programs_load_as_fact_by_fact() {
    for seed in 0..200 {
        let mut rng = Rng::new(seed);
        let flat = RandProgram::gen(&mut rng).to_source();
        assert_loads_alike(&format!("random program {seed}"), &flat);
        let rec = RecProgram::gen(&mut rng).to_source();
        assert_loads_alike(&format!("recursive program {seed}"), &rec);
    }
}

/// Duplicates, quoted symbols (multi-byte ones too), negative and
/// extreme integers, comments, 0-ary facts and facts before, between and
/// after the rules, on one predicate in several places.
#[test]
fn awkward_facts_load_as_fact_by_fact() {
    let src = "% leading comment\n\
        e(b, a). e(a, b). e(b, a). % a duplicate\n\
        city('New York', -5). city(bcn, 0). city('Señor X', 9223372036854775807).\n\
        v(X) :- e(X, Y), not flag.\n\
        city('_x', -9223372036854775807). flag. flag.\n\
        e(a, b). e('a', c). e(c, 'a b').\n\
        tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).\n\
        city(bcn, 0). e(z, -1).\n";
    assert_loads_alike("awkward", src);
    let db = parse_database(src).unwrap();
    assert_eq!(db.relation(Pred::new("e", 2)).len(), 5);
    assert_eq!(db.relation(Pred::new("flag", 0)).len(), 1);
}

/// Each malformed source fails with the message the token-vector parser
/// gave, position included (captured from it).
#[test]
fn malformed_sources_fail_as_before() {
    let cases = [
        ("p('abc).\n", "parse error at 1:3: unterminated quoted symbol"),
        ("p(a).\nq(X, b).\n", "parse error at 2:8: fact `q(X, b)` must be ground"),
        (
            "#frobnicate p/1.\n",
            "parse error at 1:13: unknown directive `#frobnicate` (expected base/view/ic/cond/domain)",
        ),
        ("p('Señor X', é).\n", "parse error at 1:14: unexpected character `é`"),
        (
            "v(X) :- q(X).\nq(a).\nv(b).\n",
            "fact asserted on derived predicate v/1; base and derived predicates are disjoint (§2)",
        ),
        (
            "p(99999999999999999999).\n",
            "parse error at 1:3: integer literal `99999999999999999999` out of range",
        ),
        // A lexical error wins over a syntax error before it.
        ("p(a)\nq(b). ?\n", "parse error at 2:7: unexpected character `?`"),
        ("p(a", "parse error at 1:3: expected `,` or `)` in argument list"),
        ("p('a\nb') ?", "parse error at 2:5: unexpected character `?`"),
        ("#base p/x.\n", "parse error at 1:10: expected arity after `/`"),
        ("p :", "parse error at 1:3: expected `:-`"),
        (
            "p(a).\n% 'naïve' comment\nq(b) r.\n",
            "parse error at 3:6: expected `.` or `:-` after atom",
        ),
        ("p(-a).\n", "parse error at 1:4: expected integer after `-`"),
        ("p(a, ).\n", "parse error at 1:6: expected constant, found `)`"),
        ("#domain {a b}.\n", "parse error at 1:12: expected `,` or `}` in domain"),
        (":- p(X)\n", "parse error at 1:7: expected `.`, found end of input"),
    ];
    for (src, want) in cases {
        let got = parse_database(src).map(|_| ()).unwrap_err().to_string();
        assert_eq!(got, want, "{src:?}");
    }
    // The one schema error of a load is `assert_fact`'s.
    let src = "v(X) :- q(X).\nq(a).\nv(b).\n";
    assert_eq!(
        parse_database(src).map(|_| ()).unwrap_err().to_string(),
        fact_by_fact(src).map(|_| ()).unwrap_err()
    );
    let events = [
        (
            "p(a).",
            "parse error at 1:2: expected `+` or `-`, found identifier `p`",
        ),
        (
            "+p(a) -q(b).",
            "parse error at 1:7: expected `.`, found `-`",
        ),
        ("+p(a). ?", "parse error at 1:8: unexpected character `?`"),
        (
            "+",
            "parse error at 1:1: expected identifier, found end of input",
        ),
    ];
    for (src, want) in events {
        assert_eq!(parse_events(src).unwrap_err().to_string(), want, "{src:?}");
    }
}

/// Symbols are interned where they first occur, an atom's terms before
/// its predicate name, so fresh symbols get increasing `Sym`s in that
/// order. The names are this test's own, so no other test interns them
/// first.
#[test]
fn fresh_symbols_are_interned_in_source_order() {
    parse_database(
        "zz_loader_p(zz_loader_a, zz_loader_b).\n\
         zz_loader_p(zz_loader_c, zz_loader_a).\n\
         zz_loader_q('zz loader d').\n\
         zz_loader_v(X) :- zz_loader_p(X, zz_loader_e).\n",
    )
    .unwrap();
    let order = [
        "zz_loader_a",
        "zz_loader_b",
        "zz_loader_p",
        "zz_loader_c",
        "zz loader d",
        "zz_loader_q",
        "zz_loader_v",
        "zz_loader_e",
    ];
    let syms: Vec<Sym> = order.iter().map(|s| Sym::new(s)).collect();
    assert!(syms.windows(2).all(|w| w[0] < w[1]), "{syms:?}");
}
