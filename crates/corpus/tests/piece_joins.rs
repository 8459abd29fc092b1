//! Piece joins are token joins: a rendered seeded body or subject line
//! holds exactly the words and search tokens of the pieces it is made
//! of, in order.
//!
//! Two readers rely on this. The generator counts TF-IDF `d_A` from the
//! pieces it draws instead of the text they render to, and mailbox
//! search matches a message by its codes instead of its text. Both are
//! exact only if no word or token runs across a join, so every
//! code-table entry, every subject template and every name is rendered
//! next to every kind of join here.

use pwnd_corpus::archetype::MAX_CODES;
use pwnd_corpus::generator::{
    SeededBody, SeededSubject, SubjectCodes, GREETING, OPENERS, SIGN_OFF, SUBJECT_PREFIX,
    SUBJECT_WORDS,
};
use pwnd_corpus::names::{FIRST_NAMES, LAST_NAMES};
use pwnd_corpus::tokenize::for_each_word;
use pwnd_corpus::vocab::SUBJECT_TEMPLATES;
use pwnd_corpus::Archetype;

const ARCHETYPES: [Archetype; 2] = [Archetype::CorporateEmployee, Archetype::Activist];

/// Search tokens: maximal runs of ASCII alphanumerics, ASCII-lowercased.
fn tokens(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_ascii_lowercase)
        .collect()
}

fn words(text: &str) -> Vec<&str> {
    let mut words = Vec::new();
    for_each_word(text, |w| words.push(w));
    words
}

/// The strings `body` is made of, in render order.
fn pieces<'a>(body: &SeededBody<'a>) -> Vec<&'a str> {
    let table = body.archetype.code_table();
    let mut pieces = vec![GREETING, body.owner_first];
    pieces.extend(body.codes.iter().map(|&c| table[usize::from(c)]));
    let (first, last) = body.sender;
    pieces.extend([SIGN_OFF, first, last, body.archetype.organization()]);
    pieces
}

/// Render `body` and check its words, tokens and length against its
/// pieces'.
fn check(body: &SeededBody<'_>) {
    let mut text = String::new();
    body.write_text(&mut text);
    let pieces = pieces(body);
    let piece_words: Vec<&str> = pieces.iter().flat_map(|p| words(p)).collect();
    assert_eq!(words(&text), piece_words, "{text:?}");
    let piece_tokens: Vec<String> = pieces.iter().flat_map(|p| tokens(p)).collect();
    assert_eq!(tokens(&text), piece_tokens, "{text:?}");
    assert_eq!(text.len(), body.text_len(), "{text:?}");
}

#[test]
fn every_pair_of_codes_joins_on_a_separator() {
    // Code `a` then `b` puts each entry after the greeting, before and
    // after every other entry (a space between words, a full stop and
    // a newline before an opener) and before the sign-off.
    for archetype in ARCHETYPES {
        let n = archetype.code_table().len();
        assert!(n <= MAX_CODES, "{archetype:?} codes overflow a u128 mask");
        for a in 0..n as u8 {
            for b in 0..n as u8 {
                check(&SeededBody {
                    codes: &[a, b],
                    archetype,
                    owner_first: "Mary",
                    sender: ("John", "Smith"),
                });
            }
        }
    }
}

#[test]
fn every_name_joins_on_a_separator() {
    // Each first name after the greeting and before an opener or a
    // word; each first and last name after the sign-off, joined by a
    // space, and before the organization.
    for archetype in ARCHETYPES {
        for (i, first) in FIRST_NAMES.iter().enumerate() {
            for last in LAST_NAMES {
                let word = OPENERS.len() as u8 + (i % 3) as u8;
                for codes in [[0, word], [word, 0]] {
                    check(&SeededBody {
                        codes: &codes,
                        archetype,
                        owner_first: first,
                        sender: (first, last),
                    });
                }
            }
        }
    }
}

#[test]
fn the_frame_holds_words_of_its_own() {
    // The pieces every body shares do hold tokens, so the checks above
    // compare something on both sides of each join.
    for archetype in ARCHETYPES {
        for piece in [GREETING, SIGN_OFF, archetype.organization()] {
            assert!(!tokens(piece).is_empty(), "{piece:?}");
        }
    }
}

/// Render `subject` and check its words, tokens and length against its
/// pieces': the prefix, the template's text between slots and the words
/// in them. The template as written, `{}` and all, holds the words and
/// tokens of the text between its slots, which is what `d_A` counts
/// and search masks read.
fn check_subject(subject: &SeededSubject) {
    let mut text = String::new();
    subject.write_text(&mut text);
    let table = subject.archetype.code_table();
    let template = SUBJECT_TEMPLATES[usize::from(subject.codes.template)];
    let mut parts = template.split("{}");
    let mut pieces = vec![SUBJECT_PREFIX, parts.next().unwrap()];
    let words_in = subject.codes.words().iter();
    for (part, &word) in parts.zip(words_in) {
        pieces.extend([table[usize::from(word)], part]);
    }
    let piece_words: Vec<&str> = pieces.iter().flat_map(|p| words(p)).collect();
    assert_eq!(words(&text), piece_words, "{text:?}");
    let piece_tokens: Vec<String> = pieces.iter().flat_map(|p| tokens(p)).collect();
    assert_eq!(tokens(&text), piece_tokens, "{text:?}");
    assert_eq!(text.len(), subject.text_len(), "{text:?}");
    let literal = format!("{SUBJECT_PREFIX}{template}");
    let literal_pieces = [SUBJECT_PREFIX].into_iter().chain(template.split("{}"));
    let literal_words: Vec<&str> = literal_pieces.clone().flat_map(words).collect();
    assert_eq!(words(&literal), literal_words, "{literal:?}");
    let literal_tokens: Vec<String> = literal_pieces.flat_map(tokens).collect();
    assert_eq!(tokens(&literal), literal_tokens, "{literal:?}");
}

#[test]
fn every_subject_template_and_word_slot_joins_on_a_separator() {
    // Each core word in each slot of each template, beside every core
    // word in the other slot.
    for archetype in ARCHETYPES {
        let core = OPENERS.len()..OPENERS.len() + archetype.core_vocab().len();
        for template in 0..SUBJECT_TEMPLATES.len() as u8 {
            let slots = SubjectCodes {
                template,
                ..SubjectCodes::default()
            }
            .words()
            .len();
            for a in core.clone() {
                let seconds = if slots > 1 { core.clone() } else { 0..1 };
                for b in seconds {
                    let mut words = [0; SUBJECT_WORDS];
                    words[..slots].copy_from_slice(&[a as u8, b as u8][..slots]);
                    let codes = SubjectCodes { template, words };
                    check_subject(&SeededSubject { codes, archetype });
                }
            }
        }
    }
}
