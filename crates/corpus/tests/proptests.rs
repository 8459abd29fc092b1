//! Property-based tests for the corpus subsystem.

use proptest::prelude::*;
use pwnd_corpus::generator::{translate_timestamps, CorpusGenerator};
use pwnd_corpus::persona::{DecoyRegion, PersonaFactory};
use pwnd_corpus::tokenize::{TermCounts, Tokenizer, HEADER_STOPWORDS, MIN_TERM_LEN};
use pwnd_sim::Rng;

/// The char-splitting tokenizer `Tokenizer::for_each_term` replaced, kept
/// as the reference the byte-splitting one must agree with. `extra` holds
/// the extra stop terms, lowercase.
fn char_split_terms(text: &str, extra: &[String]) -> Vec<String> {
    let mut terms = Vec::new();
    for word in text.split(|c: char| !c.is_ascii_alphabetic()) {
        if word.len() < MIN_TERM_LEN {
            continue;
        }
        let term = word.to_ascii_lowercase();
        if !HEADER_STOPWORDS.contains(&term.as_str()) && !extra.contains(&term) {
            terms.push(term);
        }
    }
    terms
}

/// Text that puts ASCII letter runs of every length, up to several of the
/// tokenizer's 64-byte blocks, next to multi-byte letters (some of which
/// lowercase to ASCII under Unicode rules), digits, punctuation, header
/// words in any case, and arbitrary code points.
fn mixed_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            "[abAB]{1,9}",
            "[a-zA-Z]{1,12}",
            "[a-zA-Z]{28,70}",
            "[a-z]{120,200}",
            "[éßÄΩİſ\u{212A}日1 ,.\n_-]{1,3}",
            (0usize..HEADER_STOPWORDS.len()).prop_map(|i| HEADER_STOPWORDS[i].to_uppercase()),
            (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{FFFD}').to_string()),
        ],
        0..40,
    )
    .prop_map(|parts| parts.concat())
}

proptest! {
    /// Finding words in byte masks gives the terms splitting on `char`s
    /// gave, for arbitrary Unicode text and extra stop terms.
    #[test]
    fn byte_split_matches_char_split(
        text in mixed_text(),
        extra in proptest::collection::vec("[abAB]{5,6}", 0..3),
    ) {
        let tokenizer = Tokenizer::new().with_extra_stopwords(extra.iter());
        let extra: Vec<String> = extra.iter().map(|w| w.to_lowercase()).collect();
        prop_assert_eq!(tokenizer.tokenize(&text), char_split_terms(&text, &extra));
    }

    /// Timestamp translation preserves order and lands strictly before
    /// the epoch, for any input timestamps.
    #[test]
    fn translation_preserves_order(mut ts in proptest::collection::vec(-1_000_000_000i64..1_000_000_000, 1..80)) {
        let out = translate_timestamps(&ts, 90.0);
        prop_assert_eq!(out.len(), ts.len());
        for t in &out {
            prop_assert!(t.0 < 0, "translated time after epoch");
            prop_assert!(t.as_days_f64() >= -91.5);
        }
        // Order preservation: sort indices by input, outputs must be
        // non-decreasing along them.
        let mut idx: Vec<usize> = (0..ts.len()).collect();
        idx.sort_by_key(|&i| ts[i]);
        for w in idx.windows(2) {
            prop_assert!(out[w[0]] <= out[w[1]]);
        }
        ts.clear(); // silence unused-mut lint path
    }

    /// Tokenizer output obeys its contract for any input: lowercase,
    /// alphabetic, ≥ MIN_TERM_LEN, no header stopwords.
    #[test]
    fn tokenizer_contract(s in ".{0,400}") {
        let toks = Tokenizer::new().tokenize(&s);
        for t in toks {
            prop_assert!(t.len() >= MIN_TERM_LEN);
            prop_assert!(t.chars().all(|c| c.is_ascii_lowercase()));
            prop_assert!(!HEADER_STOPWORDS.contains(&t.as_str()));
        }
    }

    /// Extra stopwords are always honoured.
    #[test]
    fn extra_stopwords_respected(word in "[a-z]{5,12}") {
        let tok = Tokenizer::new().with_extra_stopwords([word.as_str()]);
        let text = format!("{word} payment {word}");
        let toks = tok.tokenize(&text);
        prop_assert!(!toks.contains(&word));
        prop_assert!(toks.contains(&"payment".to_string()));
    }

    /// Generated mailboxes always satisfy the paper's structural
    /// invariants, for any seed.
    #[test]
    fn mailbox_invariants(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let mut factory = PersonaFactory::new();
        let owner = factory.generate(Some(DecoyRegion::Uk), &mut rng);
        let peers = factory.generate_batch(4, |_| None, &mut rng);
        let mut generator = CorpusGenerator::new();
        let mb = generator.generate_mailbox(&owner, &peers, 20, 30, &mut rng, &mut TermCounts::new()).to_emails();
        prop_assert!((20..=30).contains(&mb.len()));
        let addr = owner.webmail_address();
        for w in mb.windows(2) {
            prop_assert!(w[0].timestamp <= w[1].timestamp);
        }
        for e in &mb {
            prop_assert!(e.timestamp.0 < 0);
            prop_assert!(e.from == addr || e.to.contains(&addr));
            prop_assert!(!e.subject.is_empty());
            prop_assert!(!e.body.to_lowercase().contains("enron"));
            prop_assert!(!e.body.to_lowercase().contains("bitcoin"));
        }
    }

    /// Persona generation keeps handles unique and regions consistent,
    /// for any seed.
    #[test]
    fn persona_invariants(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let mut factory = PersonaFactory::new();
        let batch = factory.generate_batch(
            30,
            |i| if i % 2 == 0 { Some(DecoyRegion::Uk) } else { Some(DecoyRegion::Us) },
            &mut rng,
        );
        let mut handles: Vec<&str> = batch.iter().map(|p| p.handle.as_str()).collect();
        handles.sort_unstable();
        handles.dedup();
        prop_assert_eq!(handles.len(), 30);
        for (i, p) in batch.iter().enumerate() {
            let expected = if i % 2 == 0 { DecoyRegion::Uk } else { DecoyRegion::Us };
            prop_assert_eq!(p.region, Some(expected));
            // The advertised city sits within the decoy radius of the
            // region midpoint (it may cross a border — Brussels is
            // within 600 km of London).
            let d = pwnd_net::geo::haversine_km(p.home_city.point, expected.midpoint());
            prop_assert!(d <= 600.0, "{} at {d} km", p.home_city.name);
        }
    }
}
