//! The O(change) gate: what a commit and the publication of its state
//! allocate must not depend on the size of the database.
//!
//! Relations are persistent sorted runs (DESIGN.md §15), so the new state
//! `Dⁿ` of a transaction, the staged extensions and the snapshot the
//! server publishes share everything the transaction did not touch. A
//! copy of a relation, an extension or the support counts that sneaks
//! back onto the commit path allocates in proportion to the database, and
//! this test — a counting allocator around one commit, at two database
//! sizes — fails. Bytes, not time: the numbers repeat exactly. One test
//! function, and evaluation runs on the thread that asks for it, so
//! nothing else allocates while it counts.

mod common;

use common::{topology, ATTACK_GRAPH, INVENTORY};
use dduf::core::processor::ProcessorState;
use dduf::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes requested from the allocator since the process started.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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
    let before = REQUESTED.load(Ordering::Relaxed);
    let applied = staging.apply(&txn, true, &mut |_| Ok(())).unwrap();
    let state = staging.clone().into_state();
    drop(std::mem::replace(published, state));
    let bytes = REQUESTED.load(Ordering::Relaxed) - before;
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
