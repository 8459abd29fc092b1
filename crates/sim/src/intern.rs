//! String interning: deterministic, insertion-ordered symbol arena.
//!
//! A fleet-scale run holds millions of small strings — search terms,
//! addresses, user-agent labels, activity-row fields — most of them
//! drawn from a vocabulary that is tiny compared to the number of
//! occurrences. [`Interner`] stores each distinct string once and hands
//! out copyable 4-byte [`Symbol`] handles, so the hot per-account state
//! shrinks from owned `String`s to `u32`s.
//!
//! Determinism contract: symbol ids are assigned **in insertion order**
//! (the first distinct string interned is id 0, the next id 1, …), so
//! two runs that intern the same strings in the same order agree on
//! every id. There is no hashing involved anywhere — lookup uses an
//! ordered map — so ids can never depend on `RandomState` or pointer
//! values.

use std::collections::BTreeMap;
use std::sync::Arc;

/// A 4-byte handle to a string owned by an [`Interner`].
///
/// Symbols are plain indexes: they are only meaningful to the interner
/// that issued them, and resolve in O(1) via [`Interner::resolve`].
/// `Ord`/`Eq` compare ids, i.e. *insertion order*, not lexicographic
/// order — callers that need lexicographic output order must resolve
/// first (or intern in sorted order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw id (the insertion rank of the interned string).
    pub fn id(self) -> u32 {
        self.0
    }

    /// Rebuild a symbol from a raw id previously obtained via
    /// [`Symbol::id`]. The caller is responsible for pairing it with
    /// the interner that issued the id.
    pub fn from_id(id: u32) -> Symbol {
        Symbol(id)
    }
}

/// A deterministic string-interning arena.
///
/// Each distinct string is stored exactly once (a single shared
/// allocation) and identified by the [`Symbol`] equal to its insertion
/// rank. Interning the same string again is a lookup, not an
/// allocation.
///
/// ```
/// use pwnd_sim::intern::{Interner, Symbol};
///
/// let mut arena = Interner::new();
/// let payment = arena.intern("payment");
/// let invoice = arena.intern("invoice");
/// assert_eq!(payment.id(), 0); // ids follow insertion order
/// assert_eq!(invoice.id(), 1);
/// assert_eq!(arena.intern("payment"), payment); // dedup: same symbol back
/// assert_eq!(arena.resolve(payment), "payment");
/// assert_eq!(arena.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Interner {
    /// Symbol id → string, in insertion order.
    strings: Vec<Arc<str>>,
    /// String → symbol id. Ordered map: no hash state, no iteration-
    /// order hazard, and `Arc<str>` keys share the `strings` allocation.
    ids: BTreeMap<Arc<str>, u32>,
}

impl Interner {
    /// An empty arena.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Intern `text`, returning its symbol. The first call for a given
    /// string allocates and assigns the next id; later calls return the
    /// same symbol without allocating.
    pub fn intern(&mut self, text: &str) -> Symbol {
        if let Some(&id) = self.ids.get(text) {
            return Symbol(id);
        }
        let id = u32::try_from(self.strings.len()).expect("interner overflow: > u32::MAX strings");
        let owned: Arc<str> = Arc::from(text);
        self.strings.push(Arc::clone(&owned));
        self.ids.insert(owned, id);
        Symbol(id)
    }

    /// The string behind `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was not issued by this interner (id out of
    /// range).
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Look up the symbol for `text` without interning it.
    pub fn lookup(&self, text: &str) -> Option<Symbol> {
        self.ids.get(text).map(|&id| Symbol(id))
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate over `(symbol, string)` pairs in id (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> + '_ {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Symbol(i as u32), s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_follow_insertion_order() {
        let mut arena = Interner::new();
        assert_eq!(arena.intern("b").id(), 0);
        assert_eq!(arena.intern("a").id(), 1);
        assert_eq!(arena.intern("c").id(), 2);
        // Re-interning changes nothing.
        assert_eq!(arena.intern("a").id(), 1);
        assert_eq!(arena.len(), 3);
    }

    #[test]
    fn resolve_round_trips() {
        let mut arena = Interner::new();
        let s = arena.intern("wire transfer");
        assert_eq!(arena.resolve(s), "wire transfer");
        assert_eq!(arena.lookup("wire transfer"), Some(s));
        assert_eq!(arena.lookup("absent"), None);
    }

    #[test]
    fn symbols_survive_clone() {
        let mut arena = Interner::new();
        let s = arena.intern("payment");
        let copy = arena.clone();
        assert_eq!(copy.resolve(s), "payment");
    }

    #[test]
    fn iter_is_in_id_order() {
        let mut arena = Interner::new();
        arena.intern("z");
        arena.intern("a");
        let order: Vec<&str> = arena.iter().map(|(_, s)| s).collect();
        assert_eq!(order, vec!["z", "a"]);
    }

    #[test]
    fn raw_id_round_trip() {
        let mut arena = Interner::new();
        let s = arena.intern("x");
        assert_eq!(Symbol::from_id(s.id()), s);
    }
}
