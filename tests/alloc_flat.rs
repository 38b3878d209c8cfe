//! The O(change) gate: what a commit and the publication of its state
//! allocate must not depend on the size of the database — and the
//! join-kernel gate: how often a commit on the attack graph calls the
//! allocator at all.
//!
//! Relations are persistent sorted runs (DESIGN.md §15), so the new state
//! `Dⁿ` of a transaction, the staged extensions and the snapshot the
//! server publishes share everything the transaction did not touch. A
//! copy of a relation, an extension or the support counts that sneaks
//! back onto the commit path allocates in proportion to the database, and
//! the first test — a counting allocator around one commit, at two
//! database sizes — fails. Bytes and calls, not time: the numbers repeat
//! exactly. Evaluation runs on the thread that asks for it and the
//! counters are per thread, so nothing another test allocates is
//! counted.

mod common;

use common::{churn, topology, ATTACK_GRAPH, INVENTORY};
use dduf::core::processor::ProcessorState;
use dduf::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Once;

thread_local! {
    /// Bytes this thread requested from the allocator.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
    /// Allocation and reallocation calls this thread made.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one call asking for `bytes` (nothing once the thread's
/// counters are gone, at its exit).
fn count(bytes: usize) {
    let add = |counter: &Cell<u64>, n: u64| counter.set(counter.get() + n);
    let _ = REQUESTED.try_with(|r| add(r, bytes as u64));
    let _ = CALLS.try_with(|c| add(c, 1));
}

fn requested() -> u64 {
    REQUESTED.with(Cell::get)
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are const-initialized
// thread-locals without destructors, so counting never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Brings the process to one state before a test measures anything. A
/// `Sym` orders by interning, so tests that parse their databases at once
/// on several threads would order tuples, and so fill and split runs,
/// differently from run to run: every symbol of this file's databases is
/// interned here first, in one order. One short churn stream then builds
/// whatever the commit path builds once per process.
fn settle() {
    static SETTLED: Once = Once::new();
    SETTLED.call_once(|| {
        topology(INVENTORY, 2000);
        topology(ATTACK_GRAPH, 600);
        let (db, txns) = churn(4);
        let mut staging = UpdateProcessor::new(db).unwrap();
        for src in &txns {
            let txn = staging.transaction(src).unwrap();
            staging.apply(&txn, true, &mut |_| Ok(())).unwrap().unwrap();
        }
    });
}

/// A commit may allocate this much more on the large database than on the
/// small one (spines grow by a pointer per 64 tuples).
const SLACK: u64 = 128 * 1024;

/// What the server's stager does for one `:apply` in a batch of its own:
/// a checked commit on the staging processor, a clone of it to publish,
/// and the drop of the state published before. Returns the bytes that
/// allocated.
fn commit_and_publish(
    staging: &mut UpdateProcessor,
    published: &mut ProcessorState,
    src: &str,
) -> u64 {
    let txn = staging.transaction(src).unwrap();
    let before = requested();
    let applied = staging.apply(&txn, true, &mut |_| Ok(())).unwrap();
    let state = staging.clone().into_state();
    drop(std::mem::replace(published, state));
    let bytes = requested() - before;
    assert!(applied.is_ok(), "{src} is rejected");
    bytes
}

/// The most any of `commits` allocates, after `warm_up` has built
/// whatever is built on first use.
fn worst_commit(db: Database, warm_up: &str, commits: &[String]) -> (usize, u64) {
    let facts = db.fact_count();
    let mut staging = UpdateProcessor::new(db).unwrap();
    let mut published = staging.clone().into_state();
    commit_and_publish(&mut staging, &mut published, warm_up);
    let worst = commits
        .iter()
        .map(|src| commit_and_publish(&mut staging, &mut published, src))
        .max()
        .unwrap();
    (facts, worst)
}

#[test]
fn a_commit_allocates_the_same_on_a_small_and_a_large_database() {
    settle();
    // The traffic of `sync_small` / `ingest_wide`: a scanner reports a new
    // host with a vulnerability.
    let scans: Vec<String> = (1..6)
        .map(|n| format!("+host(n{n:07}, z{}). +vuln(n{n:07}, v{:02}).", n % 5, n * 7))
        .collect();
    let scan = |hosts_per_zone| {
        worst_commit(
            topology(INVENTORY, hosts_per_zone).db,
            "+host(n0000000, z0). +vuln(n0000000, v00).",
            &scans,
        )
    };
    let (small_facts, small) = scan(40);
    let (large_facts, large) = scan(2000);
    assert!(small_facts < 1_100 && large_facts > 45_000);
    println!("scanner commit: {small} B on {small_facts} facts, {large} B on {large_facts}");
    assert!(
        large <= small + SLACK,
        "a scanner commit allocates {small} B on {small_facts} facts \
         and {large} B on {large_facts}"
    );

    // The traffic of `ag_churn`, on the recursive program: a firewall rule
    // goes and comes back. The rule is the island's, which no attacker has
    // reached, so DRed has the same nothing to over-delete at either size
    // and what is left is the fixed cost of a commit.
    let toggles = [
        "+hacl(island, h0_00000).".to_string(),
        "-hacl(island, h0_00000).".to_string(),
        "+hacl(island, h0_00000).".to_string(),
        "-hacl(island, h0_00000).".to_string(),
    ];
    let toggle = |hosts_per_zone| {
        worst_commit(
            topology(ATTACK_GRAPH, hosts_per_zone).db,
            "-hacl(island, h0_00000).",
            &toggles,
        )
    };
    let (small_facts, small) = toggle(60);
    let (large_facts, large) = toggle(600);
    assert!(large_facts > 9 * small_facts);
    println!("firewall toggle: {small} B on {small_facts} facts, {large} B on {large_facts}");
    assert!(
        large <= small + SLACK,
        "a firewall toggle allocates {small} B on {small_facts} facts \
         and {large} B on {large_facts}"
    );
}

/// Allocator calls per checked commit of the 200-commit churn stream over
/// the breadth-first joins the kernel replaced (a `Bindings` map per
/// partial solution, a `Vec` per probe, an index rebuilt per commit),
/// measured with this test on the last commit that had them.
const BREADTH_FIRST_CALLS: u64 = 10_233;

/// Allocator calls of the checked commits of `dred_prune`'s churn stream
/// on a fresh processor, all told.
fn churn_calls(commits: usize) -> u64 {
    settle();
    let (db, txns) = churn(commits);
    let mut staging = UpdateProcessor::new(db).unwrap();
    let mut total = 0;
    for src in &txns {
        let txn = staging.transaction(src).unwrap();
        let before = calls();
        let applied = staging.apply(&txn, true, &mut |_| Ok(())).unwrap();
        total += calls() - before;
        assert!(applied.is_ok(), "{src} is rejected");
    }
    total
}

/// The join-kernel gate: a checked commit of `dred_prune`'s churn stream
/// makes at most half the allocator calls it made over breadth-first
/// joins. The kernel binds into a slot row, probes borrowed runs, stops
/// the keep-check at its first witness and allocates a head tuple only
/// once it is known to be new; a relation keeps its indexes across the
/// commit instead of rebuilding them.
#[test]
fn a_churn_commit_makes_half_the_allocator_calls_of_breadth_first_joins() {
    let commits = 200;
    let per_commit = churn_calls(commits) / commits as u64;
    println!("churn commit: {per_commit} allocator calls over {commits} commits");
    assert!(
        per_commit <= BREADTH_FIRST_CALLS / 2,
        "a churn commit makes {per_commit} allocator calls, \
         breadth-first joins made {BREADTH_FIRST_CALLS}"
    );
}

/// The gate above reads one number on every run: two fresh processors in
/// one process, each with hash maps of its own seeds, make the same
/// allocator calls on the same stream. A commit applies its support-count
/// deltas in tuple order, not in the order of the map that summed them,
/// and [`settle`] fixes the order of the tuples themselves.
#[test]
fn two_fresh_processors_make_the_same_allocator_calls() {
    let (first, second) = (churn_calls(200), churn_calls(200));
    assert_eq!(first, second, "allocator calls of two runs of one stream");
}
