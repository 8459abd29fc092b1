//! Property-based tests for the analysis pipeline.

use proptest::prelude::*;
use pwnd_analysis::cvm::{cdf_cvm_inf, cramer_von_mises_2samp, permutation_p_value, statistic};
use pwnd_analysis::stats::Ecdf;
use pwnd_analysis::tfidf::TfidfTable;
use pwnd_corpus::archetype::Archetype;
use pwnd_corpus::decoy::generate_decoys;
use pwnd_corpus::generator::CorpusGenerator;
use pwnd_corpus::persona::PersonaFactory;
use pwnd_corpus::tokenize::{TermCounts, Tokenizer};
use pwnd_sim::Rng;

fn samples(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1_000.0..1_000.0f64, n)
}

proptest! {
    /// An ECDF is a valid CDF: monotone, bounded by [0,1], 1 at the max.
    #[test]
    fn ecdf_is_a_cdf(mut xs in samples(1..200)) {
        let e = Ecdf::new(xs.clone());
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = xs[0];
        let hi = xs[xs.len() - 1];
        prop_assert_eq!(e.eval(lo - 1.0), 0.0);
        prop_assert_eq!(e.eval(hi), 1.0);
        let mut prev = 0.0;
        let mut x = lo;
        while x <= hi {
            let y = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&y));
            prop_assert!(y >= prev);
            prev = y;
            x += (hi - lo).max(1.0) / 17.0;
        }
    }

    /// Quantiles are order-consistent and within sample range.
    #[test]
    fn quantiles_ordered(xs in samples(1..150), q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
        let e = Ecdf::new(xs);
        let (lo_q, hi_q) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = e.quantile(lo_q).unwrap();
        let b = e.quantile(hi_q).unwrap();
        prop_assert!(a <= b);
        prop_assert!(a >= e.quantile(0.0).unwrap());
        prop_assert!(b <= e.quantile(1.0).unwrap());
    }

    /// The CvM statistic is finite, symmetric, and its p-value in [0,1].
    #[test]
    fn cvm_statistic_sane(x in samples(2..60), y in samples(2..60)) {
        let t = statistic(&x, &y);
        prop_assert!(t.is_finite());
        prop_assert!((t - statistic(&y, &x)).abs() < 1e-9);
        let r = cramer_von_mises_2samp(&x, &y);
        prop_assert!((0.0..=1.0).contains(&r.p_value));
    }

    /// Two samples drawn from the *same* continuous distribution are
    /// essentially never rejected at an extreme threshold. (An earlier
    /// version of this test parity-split an arbitrary vector — unsound:
    /// proptest happily constructs vectors whose mass clusters on even
    /// indices, and the test then correctly rejects exchangeability.)
    #[test]
    fn cvm_same_distribution_not_extreme(seed in any::<u64>(), n in 20usize..60, m in 20usize..60) {
        let mut rng = pwnd_sim::Rng::seed_from(seed);
        let d = pwnd_sim::dist::LogNormal::with_median(100.0, 1.0);
        let x: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let y: Vec<f64> = (0..m).map(|_| d.sample(&mut rng)).collect();
        let r = cramer_von_mises_2samp(&x, &y);
        // A p-value this small under H0 happens ~1e-4 of the time; with
        // 256 proptest cases a spurious failure is ~2% per run, so gate
        // at an even more extreme threshold.
        prop_assert!(r.p_value > 1e-5, "p = {}", r.p_value);
    }

    /// The permutation p-value is a valid probability and never zero.
    #[test]
    fn permutation_p_valid(x in samples(5..25), y in samples(5..25), seed in any::<u64>()) {
        let p = permutation_p_value(&x, &y, 200, seed);
        prop_assert!(p > 0.0);
        prop_assert!(p <= 1.0);
    }

    /// The limiting CDF is a CDF.
    #[test]
    fn limiting_cdf_monotone(a in 0.01..2.0f64, b in 0.01..2.0f64) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let fa = cdf_cvm_inf(lo);
        let fb = cdf_cvm_inf(hi);
        prop_assert!((0.0..=1.0).contains(&fa));
        prop_assert!((0.0..=1.0).contains(&fb));
        prop_assert!(fb + 1e-9 >= fa);
    }

    /// TF-IDF vectors are L2-normalized and rankings place corpus-only
    /// terms at non-positive difference.
    #[test]
    fn tfidf_normalized(words_a in proptest::collection::vec("[a-z]{5,9}", 1..60),
                        words_r in proptest::collection::vec("[a-z]{5,9}", 1..60)) {
        let table = TfidfTable::from_tokens(&words_a, &words_r);
        let sum_a: f64 = table.scores().iter().map(|s| s.tfidf_a * s.tfidf_a).sum();
        let sum_r: f64 = table.scores().iter().map(|s| s.tfidf_r * s.tfidf_r).sum();
        prop_assert!((sum_a - 1.0).abs() < 1e-9);
        prop_assert!((sum_r - 1.0).abs() < 1e-9);
        for s in table.scores() {
            if s.tfidf_r == 0.0 {
                prop_assert!(s.diff() <= 0.0);
            }
            prop_assert!((0.0..=1.0).contains(&s.tfidf_a));
            prop_assert!((0.0..=1.0).contains(&s.tfidf_r));
        }
    }

    /// Counting `d_A`'s words as written, then folding case and dropping
    /// stop terms when the table is built, gives the table that
    /// tokenizing both documents gives, for arbitrary text and stopwords. The small alphabet makes ≥5-letter
    /// terms repeat, collide with stopwords in any case, and sit next to
    /// digits, punctuation and multi-byte characters.
    #[test]
    fn one_pass_build_equals_from_tokens(
        all in "[abAB1 ,.é]{0,300}",
        opened in "[abAB1 ,.é]{0,120}",
        header in 0usize..4,
        stopwords in proptest::collection::vec("[abAB]{5,6}", 0..4),
    ) {
        let tokenizer = Tokenizer::new().with_extra_stopwords(stopwords.iter());
        let header = ["", "content", "Charset", "DELIVERED"][header];
        let all = format!("{all} {header} {all}");
        let mut d_a = TermCounts::new();
        d_a.add(&all);
        let built = TfidfTable::build(&d_a, &opened, &tokenizer);
        let reference = TfidfTable::from_tokens(&tokenizer.tokenize(&all), &tokenizer.tokenize(&opened));
        prop_assert_eq!(built.scores(), reference.scores());
    }

    /// `d_A` counted email by email as mailboxes are seeded gives, row
    /// for row and bit for bit, the table that tokenizing the old
    /// concatenated corpus text (each email's `full_text()` and a
    /// newline) gave: for generated mailboxes of both archetypes with
    /// decoys, extra stop terms drawn from the personas' names and the
    /// corpus's own terms, and opened mail drawn from the corpus.
    #[test]
    fn seeded_counts_equal_the_concatenated_corpus(
        seed in any::<u64>(),
        activist in any::<bool>(),
        stop_picks in proptest::collection::vec(0usize..1_000, 0..6),
        opened_picks in proptest::collection::vec(0usize..1_000, 0..8),
    ) {
        let mut rng = Rng::seed_from(seed);
        let archetype = if activist { Archetype::Activist } else { Archetype::CorporateEmployee };
        let mut factory = PersonaFactory::new();
        let peers = factory.generate_batch(3, |_| None, &mut rng);
        let owners = factory.generate_batch(2, |_| None, &mut rng);
        let mut generator = CorpusGenerator::with_archetype(archetype);
        let mut emails = Vec::new();
        for (i, owner) in owners.iter().enumerate() {
            emails.extend(generator.generate_mailbox(owner, &peers, 5, 15, &mut rng));
            let decoys = generate_decoys(owner, 1_000_000 + i as u64 * 10, &mut rng);
            emails.extend(decoys.into_iter().map(|d| d.email));
        }

        let mut d_a = TermCounts::new();
        for e in &emails {
            d_a.add_email(e);
        }
        let concatenated: String = emails.iter().map(|e| e.full_text() + "\n").collect();
        prop_assert_eq!(d_a.len(), concatenated.len());

        let terms: Vec<String> = d_a.terms(&Tokenizer::new()).into_keys().collect();
        let mut stopwords: Vec<String> = owners
            .iter()
            .chain(&peers)
            .flat_map(|p| [p.first.to_string(), p.last.to_string()])
            .collect();
        stopwords.extend(stop_picks.iter().map(|&i| terms[i % terms.len()].to_uppercase()));
        let tokenizer = Tokenizer::new().with_extra_stopwords(stopwords.iter());
        let opened: Vec<String> = opened_picks
            .iter()
            .map(|&i| emails[i % emails.len()].full_text())
            .collect();
        let opened = opened.join("\n");

        let bits = |t: &TfidfTable| -> Vec<(String, u64, u64)> {
            t.scores()
                .iter()
                .map(|s| (s.term.clone(), s.tfidf_r.to_bits(), s.tfidf_a.to_bits()))
                .collect()
        };
        let seeded = TfidfTable::build(&d_a, &opened, &tokenizer);
        let reference = TfidfTable::from_tokens(
            &tokenizer.tokenize(&concatenated),
            &tokenizer.tokenize(&opened),
        );
        prop_assert!(!reference.scores().is_empty());
        prop_assert_eq!(bits(&seeded), bits(&reference));
    }
}
