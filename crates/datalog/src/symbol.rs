//! Global string interner.
//!
//! Every identifier in the system (predicate names, symbolic constants,
//! variable names) is interned once into a process-global table and
//! afterwards represented by a 4-byte [`Sym`]. Interned strings live for the
//! lifetime of the process, which makes `Sym::as_str` return `&'static str`
//! and keeps every AST node `Copy`-friendly and cheap to hash and compare.
//!
//! Ordering of `Sym` is *interning order*, which is deterministic for a
//! deterministic program but not lexicographic; code that needs
//! human-friendly ordering (pretty-printers, test assertions) should sort by
//! `as_str()` instead. [`Sym::cmp_str`] is provided for that purpose.

use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::sync::{Mutex, OnceLock};

/// An interned string. Cheap to copy, hash and compare.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

/// Bytes per arena block. A longer string gets a block of its own.
const BLOCK: usize = 64 * 1024;

/// Marks a free slot of the lookup table.
const FREE: u32 = u32::MAX;

/// The table: a server that interns a fresh host name with every other
/// commit keeps one entry per name for as long as it runs, so an entry is
/// kept small — the string's bytes appended to a leaked arena block (no
/// allocation of its own), one `&'static str` to find it by id, and one
/// `u32` slot in an open-addressed table to find the id by string.
struct Interner {
    /// The unused tail of the newest arena block.
    arena: &'static mut [u8],
    /// Id → string.
    strings: Vec<&'static str>,
    /// String → id: linear probing over ids, [`FREE`] where empty; the
    /// length is a power of two and at most 7/8 of the slots are taken.
    slots: Vec<u32>,
    /// Keyed per process: symbols come from outside the program.
    hasher: RandomState,
}

impl Interner {
    fn new() -> Interner {
        Interner {
            arena: &mut [],
            strings: Vec::new(),
            slots: vec![FREE; 64],
            hasher: RandomState::new(),
        }
    }

    /// The slot holding `s`, or the free slot where it belongs.
    fn slot_of(&self, s: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.hasher.hash_one(s) as usize & mask;
        while self.slots[i] != FREE && self.strings[self.slots[i] as usize] != s {
            i = (i + 1) & mask;
        }
        i
    }

    fn intern(&mut self, s: &str) -> u32 {
        let slot = self.slot_of(s);
        if self.slots[slot] != FREE {
            return self.slots[slot];
        }
        let id = u32::try_from(self.strings.len())
            .ok()
            .filter(|&id| id != FREE)
            .expect("interner overflow");
        if s.len() > self.arena.len() {
            self.arena = Box::leak(vec![0u8; s.len().max(BLOCK)].into_boxed_slice());
        }
        let (bytes, rest) = std::mem::take(&mut self.arena).split_at_mut(s.len());
        self.arena = rest;
        bytes.copy_from_slice(s.as_bytes());
        self.strings
            .push(std::str::from_utf8(bytes).expect("copied from a str"));
        self.slots[slot] = id;
        if self.strings.len() * 8 > self.slots.len() * 7 {
            self.slots = vec![FREE; self.slots.len() * 2];
            for id in 0..self.strings.len() {
                let slot = self.slot_of(self.strings[id]);
                self.slots[slot] = id as u32;
            }
        }
        id
    }
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(Interner::new()))
}

impl Sym {
    /// Interns `s`, returning its symbol. Idempotent: the same string always
    /// yields the same `Sym` within a process.
    pub fn new(s: &str) -> Sym {
        Sym(interner().lock().expect("interner poisoned").intern(s))
    }

    /// The interning index: symbols order as their indexes do.
    pub(crate) fn index(self) -> u32 {
        self.0
    }

    /// The symbol with interning index `index`, interned or not: for
    /// tests of orders at indexes no process reaches. Such a symbol has
    /// no string.
    #[cfg(test)]
    pub(crate) fn from_index(index: u32) -> Sym {
        Sym(index)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        let int = interner().lock().expect("interner poisoned");
        int.strings[self.0 as usize]
    }

    /// Lexicographic comparison by the underlying string (interning order is
    /// arbitrary; use this when presenting output).
    pub fn cmp_str(self, other: Sym) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?})", self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::new("works");
        let b = Sym::new("works");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "works");
    }

    #[test]
    fn distinct_strings_get_distinct_syms() {
        assert_ne!(Sym::new("p"), Sym::new("q"));
    }

    #[test]
    fn display_matches_source() {
        assert_eq!(Sym::new("u_benefit").to_string(), "u_benefit");
    }

    #[test]
    fn cmp_str_is_lexicographic() {
        // Intern in reverse order so id order differs from lexicographic.
        let z = Sym::new("zzz_cmp_test");
        let a = Sym::new("aaa_cmp_test");
        assert_eq!(a.cmp_str(z), std::cmp::Ordering::Less);
    }

    /// The server keeps every host name it ever saw: what one costs is
    /// resident memory per commit.
    #[test]
    fn a_short_symbol_costs_at_most_forty_bytes() {
        let mut int = Interner::new();
        let n = 100_000usize;
        for i in 0..n {
            assert_eq!(int.intern(&format!("h{i:08}")) as usize, i);
        }
        for i in (0..n).step_by(997) {
            let name = format!("h{i:08}");
            assert_eq!(int.intern(&name) as usize, i, "found again");
            assert_eq!(int.strings[i], name);
        }
        let arena = n.div_ceil(BLOCK / 9) * BLOCK;
        let bytes = arena
            + int.strings.len() * std::mem::size_of::<&str>()
            + int.slots.len() * std::mem::size_of::<u32>();
        assert!(bytes <= 40 * n, "{} B per symbol", bytes / n);
    }

    #[test]
    fn strings_longer_than_a_block_are_interned_whole() {
        let mut int = Interner::new();
        let long = "x".repeat(BLOCK + 1);
        let a = int.intern("before");
        let id = int.intern(&long);
        let b = int.intern("after");
        assert_eq!(int.strings[id as usize], long);
        assert_eq!(
            (int.intern("before"), int.intern(&long), int.intern("after")),
            (a, id, b)
        );
    }

    #[test]
    fn syms_usable_across_threads() {
        let a = Sym::new("threaded");
        let handle = std::thread::spawn(move || Sym::new("threaded"));
        assert_eq!(handle.join().unwrap(), a);
    }
}
