//! The loader gate: `parse_database` calls the allocator about once per
//! fact — for the fact's tuple — whatever the size of the source.
//!
//! The loader lexes borrowed slices of the text, interns each distinct
//! string once and pushes one tuple per fact onto its predicate's vector,
//! then builds each relation from one sorted run. A token vector, an owned
//! `String` per identifier, a `Vec<Term>` per fact or a relation built
//! insert by insert comes back as calls per fact, and this test fails. It
//! has a process of its own (a counting global allocator), counts the
//! calls of its own thread only, and counts calls, not time, so the numbers
//! repeat.

use dduf::datalog::parser::parse_database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

thread_local! {
    /// Allocation and reallocation calls this thread made.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local without a destructor, so counting never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A facts-only source of about `facts` facts in the shape of the
/// benchmark's inventory: per host one `host`, most of the time a `vuln`,
/// and two `hacl` edges. Host names carry `tag`, so every source interns
/// names no other source did.
fn inventory(tag: &str, facts: usize) -> String {
    let hosts = facts / 4;
    let mut text = String::from("% generated inventory\n");
    for h in 0..hosts {
        writeln!(text, "host({tag}{h:06}, z{}).", h % 5).unwrap();
        if h % 10 != 0 {
            writeln!(text, "vuln({tag}{h:06}, v{:02}).", h % 50).unwrap();
        }
        for step in [7, 13] {
            writeln!(
                text,
                "hacl({tag}{h:06}, {tag}{:06}).",
                (h * step + 1) % hosts
            )
            .unwrap();
        }
    }
    text
}

/// Allocator calls per fact of one `parse_database` of `text`.
fn calls_per_fact(text: &str) -> f64 {
    let before = calls();
    let db = parse_database(text).unwrap();
    let spent = calls() - before;
    let facts = db.fact_count();
    drop(db);
    spent as f64 / facts as f64
}

#[test]
fn loading_calls_the_allocator_about_once_per_fact() {
    let (small, large) = (inventory("s", 2_000), inventory("l", 20_000));
    let (small, large) = (calls_per_fact(&small), calls_per_fact(&large));
    println!("parse_database: {small:.3} allocator calls per fact at 2k facts, {large:.3} at 20k");
    for (facts, per_fact) in [(2_000, small), (20_000, large)] {
        assert!(
            per_fact <= 2.0,
            "{per_fact:.3} allocator calls per fact at {facts} facts"
        );
    }
    assert!(
        (small - large).abs() <= 0.05 * small.min(large),
        "{small:.3} allocator calls per fact at 2k facts, {large:.3} at 20k"
    );
}
