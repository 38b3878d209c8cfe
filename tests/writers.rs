//! The writers render tuples directly — the snapshot's facts, derived
//! extensions, full states and the counts file — byte for byte as they
//! rendered when each fact went through an `Atom`. The pinned text below
//! was captured from that rendering. It depends on `Sym` interning order,
//! so this file holds one test, which parses every source in one fixed
//! order before it renders anything.

use dduf::datalog::parser::parse_database;
use dduf::datalog::pretty;
use dduf::prelude::*;

const SOURCES: [(&str, &str); 8] = [
    (
        "condition_monitoring",
        include_str!("../examples/programs/condition_monitoring.dl"),
    ),
    (
        "employment",
        include_str!("../examples/programs/employment.dl"),
    ),
    (
        "integrity_repair",
        include_str!("../examples/programs/integrity_repair.dl"),
    ),
    (
        "provenance_queries",
        include_str!("../examples/programs/provenance_queries.dl"),
    ),
    (
        "quickstart",
        include_str!("../examples/programs/quickstart.dl"),
    ),
    (
        "schema_design",
        include_str!("../examples/programs/schema_design.dl"),
    ),
    (
        "view_maintenance",
        include_str!("../examples/programs/view_maintenance.dl"),
    ),
    (
        "quoting",
        "city('New York', -5). city(bcn, 0). city('Señor X', 9223372036854775807).\n\
         city('_x', -9223372036854775807). flag. zone('Z9', 'a b'). zone(z, 'a.b,c').\n\
         big(C) :- city(C, _). tc(X, Y) :- zone(X, Y). tc(X, Y) :- zone(X, Z), tc(Z, Y).\n",
    ),
];

/// Every writer's output on `db`, with the counts file as written.
fn render(db: &Database, n: usize) -> String {
    let proc = UpdateProcessor::new(db.clone()).unwrap();
    let engine = proc.maintenance().unwrap();
    let interp = engine.interpretation();
    let dir = std::env::temp_dir().join(format!("dduf_writers_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dduf::persist::counts::write(&dir, engine, 3).unwrap();
    let counts = std::fs::read_to_string(dir.join(dduf::persist::COUNTS_FILE)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    format!(
        "== database\n{}== derived\n{}== state\n{}== counts\n{}",
        pretty::database(db),
        pretty::derived(interp),
        pretty::state(StateView::new(db, interp)),
        counts
    )
}

/// The rendering through `Atom`s, as captured.
const PINNED: [(&str, &str); 8] = [
    (
        "condition_monitoring",
        r#"== database
#cond reorder/1.
reorder(X) :- item(X), not in_stock(X), not on_order(X).
item(widget).
item(gadget).
item(gizmo).
in_stock(widget).
in_stock(gadget).
in_stock(gizmo).
on_order(gadget).
== derived
== state
item(widget).
item(gadget).
item(gizmo).
in_stock(widget).
in_stock(gadget).
in_stock(gizmo).
on_order(gadget).
== counts
% dduf-counts v1 journal_pos=3 crc=00000000
"#,
    ),
    (
        "employment",
        r#"== database
#ic ic/0.
#view unemp/1.
#ic ic1/0.
unemp(X) :- la(X), not works(X).
ic1 :- unemp(X), not u_benefit(X).
ic :- ic1.
la(dolors).
u_benefit(dolors).
== derived
unemp(dolors).
== state
la(dolors).
u_benefit(dolors).
unemp(dolors). %= derived
== counts
% dduf-counts v1 journal_pos=3 crc=b83e136e
c 1 +unemp(dolors).
"#,
    ),
    (
        "integrity_repair",
        r#"== database
#ic ic/0.
#view unemp/1.
#ic ic1/0.
#ic ic2/0.
unemp(X) :- la(X), not works(X).
ic1 :- unemp(X), not u_benefit(X).
ic2 :- works(X), u_benefit(X).
ic :- ic1.
ic :- ic2.
la(pere).
la(rosa).
u_benefit(pere).
works(pere).
== derived
ic.
unemp(rosa).
ic1.
ic2.
== state
la(pere).
la(rosa).
u_benefit(pere).
works(pere).
ic. %= derived
unemp(rosa). %= derived
ic1. %= derived
ic2. %= derived
== counts
% dduf-counts v1 journal_pos=3 crc=b89ba88a
c 2 +ic.
c 1 +unemp(rosa).
c 1 +ic1.
c 1 +ic2.
"#,
    ),
    (
        "provenance_queries",
        r#"== database
#view emp_city/2.
#view plain/1.
#view covered/1.
emp_city(E, C) :- emp(E, D), dept(D, C).
plain(E) :- emp(E, _Anon1), not mgr(E).
covered(E) :- emp_city(E, bcn).
emp(ana, sales).
emp(ben, sales).
emp(cara, hr).
dept(sales, bcn).
dept(hr, madrid).
mgr(ana).
== derived
emp_city(ana, bcn).
emp_city(ben, bcn).
emp_city(cara, madrid).
plain(ben).
plain(cara).
covered(ana).
covered(ben).
== state
emp(ana, sales).
emp(ben, sales).
emp(cara, hr).
dept(sales, bcn).
dept(hr, madrid).
mgr(ana).
emp_city(ana, bcn). %= derived
emp_city(ben, bcn). %= derived
emp_city(cara, madrid). %= derived
plain(ben). %= derived
plain(cara). %= derived
covered(ana). %= derived
covered(ben). %= derived
== counts
% dduf-counts v1 journal_pos=3 crc=13fb478b
c 1 +emp_city(ana, bcn).
c 1 +emp_city(ben, bcn).
c 1 +emp_city(cara, madrid).
c 1 +plain(ben).
c 1 +plain(cara).
c 1 +covered(ana).
c 1 +covered(ben).
"#,
    ),
    (
        "quickstart",
        r#"== database
#view p/1.
p(X) :- q(X), not r(X).
q(a).
q(b).
r(b).
== derived
p(a).
== state
q(a).
q(b).
r(b).
p(a). %= derived
== counts
% dduf-counts v1 journal_pos=3 crc=452dfd9b
c 1 +p(a).
"#,
    ),
    (
        "schema_design",
        r#"== database
#domain hired/1 {ana, ben, cara}.
#domain assigned/2 {ana, ben, cara, apollo, hermes}.
#ic ic/0.
#ic ic1/0.
#view staffed/1.
staffed(P) :- assigned(_Anon1, P).
ic1 :- assigned(E, _Anon2), not hired(E).
ic :- ic1.
hired(ana).
== derived
== state
hired(ana).
== counts
% dduf-counts v1 journal_pos=3 crc=00000000
"#,
    ),
    (
        "view_maintenance",
        r#"== database
#view order_city/2.
#view pending/1.
order_city(O, City) :- order(O, C), customer(C, City).
pending(O) :- order(O, _Anon1), not shipped(O).
customer(acme, bcn).
customer(globex, madrid).
order(o1, acme).
order(o2, globex).
shipped(o2).
== derived
order_city(o1, bcn).
order_city(o2, madrid).
pending(o1).
== state
customer(acme, bcn).
customer(globex, madrid).
order(o1, acme).
order(o2, globex).
shipped(o2).
order_city(o1, bcn). %= derived
order_city(o2, madrid). %= derived
pending(o1). %= derived
== counts
% dduf-counts v1 journal_pos=3 crc=4484478a
c 1 +order_city(o1, bcn).
c 1 +order_city(o2, madrid).
c 1 +pending(o1).
"#,
    ),
    (
        "quoting",
        r#"== database
#view big/1.
#view tc/2.
big(C) :- city(C, _Anon1).
tc(X, Y) :- zone(X, Y).
tc(X, Y) :- zone(X, Z), tc(Z, Y).
city(bcn, 0).
city('New York', -5).
city('Señor X', 9223372036854775807).
city('_x', -9223372036854775807).
flag.
zone('Z9', 'a b').
zone(z, 'a.b,c').
== derived
big(bcn).
big('New York').
big('Señor X').
big('_x').
tc('Z9', 'a b').
tc(z, 'a.b,c').
== state
city(bcn, 0).
city('New York', -5).
city('Señor X', 9223372036854775807).
city('_x', -9223372036854775807).
flag.
zone('Z9', 'a b').
zone(z, 'a.b,c').
big(bcn). %= derived
big('New York'). %= derived
big('Señor X'). %= derived
big('_x'). %= derived
tc('Z9', 'a b'). %= derived
tc(z, 'a.b,c'). %= derived
== counts
% dduf-counts v1 journal_pos=3 crc=6935c942
c 1 +big(bcn).
c 1 +big('New York').
c 1 +big('Señor X').
c 1 +big('_x').
x +tc('Z9', 'a b').
x +tc(z, 'a.b,c').
"#,
    ),
];

#[test]
fn writers_render_as_pinned() {
    let dbs: Vec<Database> = SOURCES
        .iter()
        .map(|(_, src)| parse_database(src).unwrap())
        .collect();
    for (n, (((name, _), db), (pinned_name, pinned))) in
        SOURCES.iter().zip(&dbs).zip(PINNED).enumerate()
    {
        assert_eq!(*name, pinned_name);
        assert_eq!(render(db, n), pinned, "{name}");
    }
}
