//! The §4.3.5 preprocessing pipeline.
//!
//! Before running TF-IDF the paper "filtered out all words that have less
//! than 5 characters, and remov\[ed\] all known header-related words, for
//! instance 'delivered' and 'charset', honey email handles, and also
//! signaling information that our monitoring infrastructure introduced".
//! This module is that pipeline: a lowercasing alphabetic tokenizer, the
//! length filter, the header stoplist, and caller-supplied extra stop
//! terms (handles and monitor markers). [`TermCounts`] counts a
//! document's words a piece of text at a time and applies the pipeline
//! once per distinct word.

use crate::email::Email;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Minimum term length kept by the pipeline.
pub const MIN_TERM_LEN: usize = 5;

/// Header-related words stripped before analysis. Deliberately *excludes*
/// "transfer": the paper's Table 2 ranks `transfer` as the most important
/// corpus word, so `Content-Transfer-Encoding` fragments must be handled
/// by stripping `encoding`/`content`, not the word itself.
pub const HEADER_STOPWORDS: &[&str] = &[
    "delivered",
    "charset",
    "received",
    "content",
    "encoding",
    "boundary",
    "multipart",
    "quoted",
    "printable",
    "mailto",
    "subject",
    "message",
    "mailer",
    "precedence",
    "return",
    "sender",
];

/// Whether `term` is in [`HEADER_STOPWORDS`], as a `match`: one length
/// test and at most a few compares instead of a scan of the list.
fn is_header_stopword(term: &str) -> bool {
    matches!(
        term,
        "delivered"
            | "charset"
            | "received"
            | "content"
            | "encoding"
            | "boundary"
            | "multipart"
            | "quoted"
            | "printable"
            | "mailto"
            | "subject"
            | "message"
            | "mailer"
            | "precedence"
            | "return"
            | "sender"
    )
}

/// A reusable tokenizer configuration.
#[derive(Clone, Debug, Default)]
pub struct Tokenizer {
    extra_stop: BTreeSet<String>,
}

impl Tokenizer {
    /// A tokenizer with only the built-in header stoplist.
    pub fn new() -> Tokenizer {
        Tokenizer::default()
    }

    /// Add extra stop terms: honey handles, monitor signal markers.
    /// Terms are matched lowercase.
    pub fn with_extra_stopwords<I, S>(mut self, words: I) -> Tokenizer
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for w in words {
            self.extra_stop.insert(w.as_ref().to_lowercase());
        }
        self
    }

    /// Whether the lowercase `term` is a header stopword or one of this
    /// tokenizer's extra stop terms.
    pub fn is_stopword(&self, term: &str) -> bool {
        is_header_stopword(term) || self.extra_stop.contains(term)
    }

    /// Tokenize `text` into filtered lowercase terms.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut terms = Vec::new();
        self.for_each_term(text, |t| terms.push(t.to_string()));
        terms
    }

    /// Call `f` on each filtered lowercase term of `text`, in order — the
    /// terms [`Tokenizer::tokenize`] returns, without allocating one
    /// string per term: each [word](for_each_word) is lowercased into one
    /// reused buffer.
    pub fn for_each_term(&self, text: &str, mut f: impl FnMut(&str)) {
        let mut term = String::new();
        for_each_word(text, |word| {
            term.clear();
            term.push_str(word);
            term.make_ascii_lowercase();
            if !self.is_stopword(&term) {
                f(&term);
            }
        });
    }
}

/// Call `f` on each word of `text`, as written and in order: each maximal
/// run of at least [`MIN_TERM_LEN`] ASCII letters. A byte of a multi-byte
/// character is never an ASCII letter, so the runs are the ones a split
/// on `char`s finds. The text is read 64 bytes at a time as a bit mask
/// of its letters, so runs shorter than [`MIN_TERM_LEN`] cost no branch.
pub fn for_each_word<'t>(text: &'t str, mut f: impl FnMut(&'t str)) {
    // Start of a run still going at the end of the previous block.
    let mut open: Option<usize> = None;
    for (i, block) in text.as_bytes().chunks(64).enumerate() {
        let base = i * 64;
        let mut letters = letter_mask(block);
        if let Some(start) = open {
            let run = (!letters).trailing_zeros() as usize;
            if run == 64 {
                continue;
            }
            if base + run - start >= MIN_TERM_LEN {
                f(&text[start..base + run]);
            }
            open = None;
            letters &= !0 << run;
        }
        // A run reaching the block's last byte may go on in the next one.
        let tail = (!letters).leading_zeros() as usize;
        if tail > 0 {
            open = Some(base + 64 - tail);
            letters &= u64::MAX.checked_shr(tail as u32).unwrap_or(0);
        }
        let starts = letters & !(letters << 1);
        let mut long = letters;
        for shift in 1..MIN_TERM_LEN {
            long &= letters >> shift;
        }
        let mut long_starts = starts & long;
        while long_starts != 0 {
            let s = long_starts.trailing_zeros() as usize;
            let len = (!(letters >> s)).trailing_zeros() as usize;
            f(&text[base + s..base + s + len]);
            long_starts &= long_starts - 1;
        }
    }
    if let Some(start) = open {
        if text.len() - start >= MIN_TERM_LEN {
            f(&text[start..]);
        }
    }
}

/// Bit `j` is set iff byte `j` of `block` (at most 64 bytes) is an ASCII
/// letter.
fn letter_mask(block: &[u8]) -> u64 {
    let mut mask = 0;
    for (k, chunk) in block.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        mask |= letter_bits(u64::from_le_bytes(word)) << (8 * k);
    }
    mask
}

/// Bit `j` is set iff byte `j` of the eight in `word` is an ASCII letter.
fn letter_bits(word: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    // Fold case, and drop each byte's top bit so the adds below never
    // carry into the next byte; a byte with its top bit set is not ASCII
    // and is masked out at the end.
    let folded = (word | 0x2020_2020_2020_2020) & LOW7;
    let at_least_a = folded + 0x1f1f_1f1f_1f1f_1f1f; // top bit iff >= b'a'
    let past_z = folded + 0x0505_0505_0505_0505; // top bit iff > b'z'
    let letters = at_least_a & !past_z & !word & HIGH;
    // Gather the eight top bits into the low byte.
    (letters >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Word counts of one document, fed a piece of text at a time, or a piece
/// and how many times it was written: how TF-IDF document `d_A` is
/// counted while mailboxes are generated, without ever holding the
/// document's text. Words are counted as written; case is
/// folded and stop terms dropped once per distinct word, when
/// [`TermCounts::terms`] reads the counts out.
///
/// A code table's pieces are counted as how often each was used
/// ([`TermCounts::add_piece_uses`]), summed over every mailbox, and
/// split into words only when the counts are read: a run's mailboxes all
/// draw from one or two tables, so each piece's words are counted once
/// per run rather than once per mailbox. Every read ([`terms`], [`get`],
/// `==`) sees the words the uses stand for.
///
/// [`terms`]: TermCounts::terms
/// [`get`]: TermCounts::get
#[derive(Clone, Debug, Default)]
pub struct TermCounts {
    // lint:allow(hash-order): per-word hot path of corpus indexing; `terms` reads it via a BTreeMap
    counts: std::collections::HashMap<Box<str>, u64, BuildHasherDefault<WordHasher>>,
    /// Piece-use totals per code table, not yet split into words.
    pieces: Vec<PieceUses>,
    bytes: usize,
}

/// How many times each piece of one code table was written.
#[derive(Clone, Debug)]
struct PieceUses {
    table: &'static [&'static str],
    uses: Vec<u64>,
}

impl PartialEq for TermCounts {
    /// Equal when the same bytes were counted and the same words, the
    /// piece uses split into words on both sides.
    fn eq(&self, other: &TermCounts) -> bool {
        self.bytes == other.bytes && self.words() == other.words()
    }
}

impl TermCounts {
    /// No words, no bytes.
    pub fn new() -> TermCounts {
        TermCounts::default()
    }

    /// Count the words of `text` as one line of the document: the byte
    /// length grows by `text` plus its newline.
    pub fn add(&mut self, text: &str) {
        self.add_len(text.len() + 1);
        self.add_times(text, 1);
    }

    /// Count the words of `text` `n` times over, leaving the byte
    /// length alone: how a writer that knows how often it wrote a piece
    /// counts it without reading what it wrote. `n == 0` counts nothing.
    pub fn add_times(&mut self, text: &str, n: u64) {
        if n == 0 {
            return;
        }
        for_each_word(text, |w| match self.counts.get_mut(w) {
            Some(c) => *c += n,
            None => {
                self.counts.insert(w.into(), n);
            }
        });
    }

    /// Count piece `k` of `table` `uses[k]` times over, leaving the byte
    /// length alone: what `add_times(table[k], uses[k])` for every `k`
    /// counts, kept as totals per piece until the counts are read.
    /// Panics if `uses` is longer than `table`.
    pub fn add_piece_uses(&mut self, table: &'static [&'static str], uses: &[u64]) {
        assert!(uses.len() <= table.len(), "a use count per piece");
        let i = match self
            .pieces
            .iter()
            .position(|p| std::ptr::eq(p.table, table))
        {
            Some(i) => i,
            None => {
                self.pieces.push(PieceUses {
                    table,
                    uses: vec![0; table.len()],
                });
                self.pieces.len() - 1
            }
        };
        for (total, &n) in self.pieces[i].uses.iter_mut().zip(uses) {
            *total += n;
        }
    }

    /// Every word's count as written, in word order, the piece uses
    /// split into words.
    fn words(&self) -> BTreeMap<&str, u64> {
        let mut words: BTreeMap<&str, u64> = self.counts.iter().map(|(w, &n)| (&**w, n)).collect();
        for p in &self.pieces {
            for (piece, &n) in p.table.iter().zip(&p.uses).filter(|(_, &n)| n > 0) {
                for_each_word(piece, |w| *words.entry(w).or_insert(0) += n);
            }
        }
        words
    }

    /// Grow the byte length by `bytes` without counting any words.
    pub fn add_len(&mut self, bytes: usize) {
        self.bytes += bytes;
    }

    /// Count `email` as its subject line, then its body: the document
    /// the concatenation of each email's `full_text()` and a newline
    /// would be.
    pub fn add_email(&mut self, email: &Email) {
        self.add(&email.subject);
        self.add(&email.body);
    }

    /// The document's terms under `tokenizer`, with their counts, in term
    /// order: what counting `tokenizer.tokenize` of the whole text gives.
    pub fn terms(&self, tokenizer: &Tokenizer) -> BTreeMap<String, u64> {
        let mut terms = BTreeMap::new();
        for (word, n) in self.words() {
            *terms.entry(word.to_ascii_lowercase()).or_insert(0) += n;
        }
        terms.retain(|t, _| !tokenizer.is_stopword(t));
        terms
    }

    /// Occurrences of `term`, in any case.
    pub fn get(&self, term: &str) -> u64 {
        self.words()
            .into_iter()
            .filter(|(w, _)| w.eq_ignore_ascii_case(term))
            .map(|(_, c)| c)
            .sum()
    }

    /// Bytes of text counted, newlines included: the length the
    /// document's concatenated text would have.
    pub fn len(&self) -> usize {
        self.bytes
    }

    /// Whether no text was counted.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }
}

/// An FxHash-style hasher for [`TermCounts`]' words: one multiply per
/// eight bytes read. Words are short and the program generates them, so
/// SipHash's flooding resistance buys nothing here, and hashing is a
/// large share of counting a word.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Eight bytes at a time, then the last eight again when the length
        // is not a multiple of eight; a shorter slice is read as its first
        // and last four bytes. Overlapping reads need no copy.
        let n = bytes.len();
        if n >= 8 {
            let mut words = bytes.chunks_exact(8);
            for word in &mut words {
                self.add(u64::from_le_bytes(word.try_into().expect("eight bytes")));
            }
            if !words.remainder().is_empty() {
                self.add(u64::from_le_bytes(
                    bytes[n - 8..].try_into().expect("eight bytes"),
                ));
            }
        } else if n >= 4 {
            let head = u32::from_le_bytes(bytes[..4].try_into().expect("four bytes"));
            let tail = u32::from_le_bytes(bytes[n - 4..].try_into().expect("four bytes"));
            self.add(u64::from(head) | u64::from(tail) << 32);
        } else {
            for &b in bytes {
                self.add(u64::from(b));
            }
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best bits on top; the table indexes
        // with the low ones.
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_short_words() {
        let t = Tokenizer::new();
        let toks = t.tokenize("the cat sat on the energy market desk");
        assert_eq!(toks, vec!["energy", "market"]);
    }

    #[test]
    fn strips_header_words_but_keeps_transfer() {
        let t = Tokenizer::new();
        let toks = t.tokenize("Content-Transfer-Encoding: quoted-printable transfer charset=utf8");
        assert_eq!(toks, vec!["transfer", "transfer"]);
    }

    #[test]
    fn lowercases_and_splits_on_punctuation() {
        let t = Tokenizer::new();
        let toks = t.tokenize("PAYMENT!!! seller,family;bitcoin_wallet");
        assert_eq!(
            toks,
            vec!["payment", "seller", "family", "bitcoin", "wallet"]
        );
    }

    #[test]
    fn extra_stopwords_remove_handles() {
        let t = Tokenizer::new().with_extra_stopwords(["james", "smith", "honeymail"]);
        let toks = t.tokenize("james.smith@honeymail.example discussed payment");
        assert_eq!(toks, vec!["example", "discussed", "payment"]);
    }

    #[test]
    fn numbers_are_not_terms() {
        let t = Tokenizer::new();
        let toks = t.tokenize("12345 67890abcde payment99999");
        // "abcde" survives (alphabetic run of 5), digits never do.
        assert_eq!(toks, vec!["abcde", "payment"]);
    }

    #[test]
    fn for_each_term_visits_the_tokenized_terms_in_order() {
        let t = Tokenizer::new().with_extra_stopwords(["smith"]);
        let text = "Smith wrote: PAYMENT due, charset=utf8; transfer Transfer";
        let mut seen = Vec::new();
        t.for_each_term(text, |w| seen.push(w.to_string()));
        assert_eq!(seen, t.tokenize(text));
        assert_eq!(seen, vec!["wrote", "payment", "transfer", "transfer"]);
    }

    #[test]
    fn header_stopword_match_covers_the_list() {
        for w in HEADER_STOPWORDS {
            assert!(is_header_stopword(w), "{w}");
        }
        for w in ["transfer", "energy", "contents", "charse"] {
            assert!(!is_header_stopword(w), "{w}");
        }
    }

    #[test]
    fn letter_bits_agree_with_is_ascii_alphabetic_on_every_byte() {
        for b in 0..=255u8 {
            for j in 0..8 {
                let mut word = [b'.'; 8];
                word[j] = b;
                let expected = u64::from(b.is_ascii_alphabetic()) << j;
                assert_eq!(
                    letter_bits(u64::from_le_bytes(word)),
                    expected,
                    "byte {b} at {j}"
                );
            }
        }
    }

    #[test]
    fn words_at_and_across_block_edges_are_found() {
        let long = "Abcdefghij".repeat(15);
        for text in [
            // A word ending on a block's last byte, then one split 4 + 1
            // across the edge, then a short run at the edge.
            format!("{}Edges then", ".".repeat(59)),
            format!("{}Edges then", ".".repeat(60)),
            format!("{}Ab cdefg", ".".repeat(62)),
            // Words spanning whole blocks, the last one ending the text.
            format!("x{long}y {long}"),
        ] {
            let mut words = Vec::new();
            for_each_word(&text, |w| words.push(w));
            let reference: Vec<&str> = text
                .split(|c: char| !c.is_ascii_alphabetic())
                .filter(|w| w.len() >= MIN_TERM_LEN)
                .collect();
            assert_eq!(words, reference, "{text}");
        }
    }

    #[test]
    fn term_counts_count_words_and_bytes() {
        let mut c = TermCounts::new();
        assert!(c.is_empty());
        c.add("Energy transfer, energy");
        c.add("");
        c.add("smith: TRANSFER charset");
        assert_eq!(c.len(), 23 + 1 + 1 + 23 + 1);
        assert_eq!(c.get("energy"), 2);
        assert_eq!(c.get("charset"), 1);
        let t = Tokenizer::new().with_extra_stopwords(["smith"]);
        let terms: Vec<(String, u64)> = c.terms(&t).into_iter().collect();
        assert_eq!(terms, [("energy".into(), 2), ("transfer".into(), 2)]);
    }

    #[test]
    fn add_times_counts_words_n_times_and_no_bytes() {
        let mut once = TermCounts::new();
        for _ in 0..3 {
            once.add("Energy transfer, energy");
        }
        let mut times = TermCounts::new();
        times.add_times("Energy transfer, energy", 3);
        times.add_times("market", 0);
        assert_eq!(times.len(), 0);
        assert_eq!(times.get("market"), 0);
        times.add_len(3 * 24);
        assert_eq!(times, once);
    }

    #[test]
    fn empty_input_yields_no_terms() {
        assert!(Tokenizer::new().tokenize("").is_empty());
        assert!(Tokenizer::new().tokenize("a b c d").is_empty());
    }
}
