//! ASCII rendering of the full evaluation.
//!
//! [`FullAnalysis`] bundles every table and figure; `render()` prints the
//! whole §4 evaluation in plain text, with the paper's reference values
//! alongside the measured ones where a direct comparison exists.

use crate::extended::{extended, ExtendedStats};
use crate::figures::{self, CvmOutcome, Fig1, Fig2, Fig3, Fig4Point, Fig5, Fig6Condition};
use crate::sophistication::{sophistication, SophisticationRow};
use crate::tables::{origin_stats, overview, table1, OriginStats, Overview, Table1Row};
use crate::tfidf::TfidfTable;
use pwnd_corpus::tokenize::{TermCounts, Tokenizer};
use pwnd_monitor::dataset::Dataset;
use pwnd_net::dnsbl::Blacklist;
use std::fmt::Write as _;

/// Everything §4 computes, in one bundle.
#[derive(Clone, Debug)]
pub struct FullAnalysis {
    /// §4.1 headline numbers.
    pub overview: Overview,
    /// Table 1 reconstruction.
    pub table1: Vec<Table1Row>,
    /// Figure 1 data.
    pub fig1: Fig1,
    /// Figure 2 data.
    pub fig2: Fig2,
    /// Figure 3 data.
    pub fig3: Fig3,
    /// Figure 4 data.
    pub fig4: Vec<Fig4Point>,
    /// Figure 5 data.
    pub fig5: Fig5,
    /// Figure 6 conditions.
    pub fig6: Vec<Fig6Condition>,
    /// The four Cramér–von Mises tests.
    pub cvm: Vec<CvmOutcome>,
    /// Origin statistics (Tor, countries, blacklist hits).
    pub origins: OriginStats,
    /// Table 2 TF-IDF data.
    pub tfidf: TfidfTable,
    /// §4.5 sophistication scores.
    pub sophistication: Vec<SophisticationRow>,
    /// Extended views beyond the paper's figures.
    pub extended: ExtendedStats,
    /// Monitoring-coverage summary. `None` for fault-free runs (no gaps
    /// tracked), which keeps their rendered report unchanged.
    pub coverage: Option<CoverageStats>,
}

/// How much of each account's observation window the monitoring pipeline
/// actually saw, aggregated over the run. Only produced when the dataset
/// carries per-account coverage (i.e. the run injected faults).
#[derive(Clone, Debug)]
pub struct CoverageStats {
    /// Mean per-account coverage in `[0, 1]`.
    pub mean: f64,
    /// Worst single account's coverage.
    pub min: f64,
    /// Accounts with coverage strictly below 1.0.
    pub degraded_accounts: usize,
    /// Accounts carrying a coverage figure.
    pub accounts: usize,
    /// Known blind windows recorded in the dataset.
    pub gap_count: usize,
    /// The lowest-coverage accounts, ascending, capped at five.
    pub worst: Vec<(u32, f64)>,
}

fn coverage_stats(ds: &Dataset) -> Option<CoverageStats> {
    let mut covered: Vec<(u32, f64)> = ds
        .accounts
        .iter()
        .filter_map(|a| a.coverage.map(|c| (a.account, c)))
        .collect();
    if covered.is_empty() {
        return None;
    }
    covered.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    let mean = covered.iter().map(|(_, c)| c).sum::<f64>() / covered.len() as f64;
    Some(CoverageStats {
        mean,
        min: covered[0].1,
        degraded_accounts: covered.iter().filter(|(_, c)| *c < 1.0).count(),
        accounts: covered.len(),
        gap_count: ds.gaps.len(),
        worst: covered.into_iter().take(5).collect(),
    })
}

impl FullAnalysis {
    /// Run the entire pipeline. `d_a` holds the word counts of every
    /// seeded email (document `d_A`); `extra_stopwords` carries the honey
    /// handles and monitor markers the paper stripped.
    pub fn compute(
        ds: &Dataset,
        d_a: &TermCounts,
        extra_stopwords: &[String],
        blacklist: Option<&Blacklist>,
    ) -> FullAnalysis {
        let tokenizer = Tokenizer::new().with_extra_stopwords(extra_stopwords.iter());
        let opened_text = ds.opened_texts.join("\n");
        let fig6 = figures::fig6(ds);
        let cvm = figures::cvm_tests(&fig6);
        FullAnalysis {
            overview: overview(ds),
            table1: table1(ds),
            fig1: figures::fig1(ds),
            fig2: figures::fig2(ds),
            fig3: figures::fig3(ds),
            fig4: figures::fig4(ds),
            fig5: figures::fig5(ds),
            fig6,
            cvm,
            origins: origin_stats(ds, blacklist),
            tfidf: TfidfTable::build(d_a, &opened_text, &tokenizer),
            sophistication: sophistication(ds),
            extended: extended(ds),
            coverage: coverage_stats(ds),
        }
    }

    /// Render the full evaluation as plain text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== Overview (paper §4.1) ==");
        let o = &self.overview;
        let _ = writeln!(
            s,
            "unique accesses : {:>5}   (paper: 326)",
            o.total_accesses
        );
        let _ = writeln!(s, "emails opened   : {:>5}   (paper: 147)", o.emails_opened);
        let _ = writeln!(s, "emails sent     : {:>5}   (paper: 845)", o.emails_sent);
        let _ = writeln!(s, "drafts composed : {:>5}   (paper: 12)", o.drafts_created);
        let _ = writeln!(
            s,
            "accounts w/ access: {:>3}  (paper: 90)",
            o.accounts_accessed
        );
        for (outlet, n) in &o.accessed_by_outlet {
            let paper = match outlet.as_str() {
                "paste" => 41,
                "forum" => 30,
                _ => 19,
            };
            let _ = writeln!(
                s,
                "  {outlet:<8} accounts accessed: {n:>3} (paper: {paper})"
            );
        }
        for (outlet, n) in &o.accesses_by_outlet {
            let paper = match outlet.as_str() {
                "paste" => 144,
                "forum" => 125,
                _ => 57,
            };
            let _ = writeln!(s, "  {outlet:<8} accesses: {n:>4} (paper: {paper})");
        }
        let _ = writeln!(
            s,
            "accounts blocked : {:>3}  (paper: 42)",
            o.accounts_blocked
        );
        let _ = writeln!(
            s,
            "accounts hijacked: {:>3}  (paper: 36)",
            o.accounts_hijacked
        );

        let _ = writeln!(s, "\n== Table 1: leak groups ==");
        for r in &self.table1 {
            let _ = writeln!(
                s,
                "group {}  {:>3} accounts  {}",
                r.group, r.accounts, r.outlet
            );
        }

        let _ = writeln!(s, "\n== Figure 1: access types per outlet ==");
        let _ = writeln!(
            s,
            "{:<10} {:>8} {:>12} {:>10} {:>9}  (n)",
            "outlet", "curious", "gold digger", "hijacker", "spammer"
        );
        for (outlet, f, n) in &self.fig1.rows {
            let _ = writeln!(
                s,
                "{outlet:<10} {:>8.2} {:>12.2} {:>10.2} {:>9.2}  ({n})",
                f[0], f[1], f[2], f[3]
            );
        }

        let _ = writeln!(s, "\n== Figure 2: access duration CDF (minutes) ==");
        for (label, e) in &self.fig2.series {
            if e.is_empty() {
                let _ = writeln!(s, "{label:<12} (no accesses)");
                continue;
            }
            let _ = writeln!(
                s,
                "{label:<12} n={:<4} p50={:>8.1}m p90={:>10.1}m max={:>10.1}m",
                e.len(),
                e.median().unwrap_or(0.0),
                e.quantile(0.9).unwrap_or(0.0),
                e.quantile(1.0).unwrap_or(0.0),
            );
        }

        let _ = writeln!(s, "\n== Figure 3: days from leak to access (CDF @ 25d) ==");
        for (outlet, e) in &self.fig3.series {
            let paper = match outlet.as_str() {
                "paste" => 0.80,
                "forum" => 0.60,
                _ => 0.40,
            };
            let _ = writeln!(
                s,
                "{outlet:<8} F(25d) = {:>5.2} (paper ≈ {paper:.2}), n={}",
                e.eval(25.0),
                e.len()
            );
        }

        let _ = writeln!(s, "\n== Figure 4: malware resale bursts ==");
        let malware_days: Vec<f64> = self
            .fig4
            .iter()
            .filter(|p| p.outlet == "malware")
            .map(|p| p.day)
            .collect();
        let in_band =
            |lo: f64, hi: f64| malware_days.iter().filter(|&&d| d >= lo && d < hi).count();
        let _ = writeln!(
            s,
            "malware accesses: <25d {} | 25-60d {} | 95-130d {} | other {}",
            in_band(0.0, 25.0),
            in_band(25.0, 60.0),
            in_band(95.0, 130.0),
            malware_days.len() - in_band(0.0, 25.0) - in_band(25.0, 60.0) - in_band(95.0, 130.0)
        );

        let _ = writeln!(s, "\n== Figure 5a: browsers per outlet ==");
        for (outlet, m) in &self.fig5.browsers {
            let mut parts: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{k} {:.0}%", v * 100.0))
                .collect();
            parts.sort();
            let _ = writeln!(s, "{outlet:<8} {}", parts.join(", "));
        }
        let _ = writeln!(s, "\n== Figure 5b: operating systems per outlet ==");
        for (outlet, m) in &self.fig5.oses {
            let mut parts: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{k} {:.0}%", v * 100.0))
                .collect();
            parts.sort();
            let _ = writeln!(s, "{outlet:<8} {}", parts.join(", "));
        }

        let _ = writeln!(
            s,
            "\n== Figure 6: median distance from advertised midpoints (km) =="
        );
        for c in &self.fig6 {
            let loc = if c.with_location {
                "with location"
            } else {
                "no location "
            };
            let _ = writeln!(
                s,
                "{:<6} {} {}  median {:>7.0} km  (n={})",
                c.outlet,
                c.region,
                loc,
                c.median_km.unwrap_or(f64::NAN),
                c.distances_km.len()
            );
        }

        let _ = writeln!(s, "\n== Cramér–von Mises tests (reject at p < 0.01) ==");
        for t in &self.cvm {
            let paper = match t.label.as_str() {
                "paste UK" => "paper p=0.0017 (reject)",
                "paste US" => "paper p=7e-7 (reject)",
                "forum UK" => "paper p=0.273 (keep)",
                "forum US" => "paper p=0.272 (keep)",
                _ => "",
            };
            let _ = writeln!(
                s,
                "{:<9} T={:>8.4}  p={:<10.6} {}  | {paper}",
                t.label,
                t.statistic,
                t.p_value,
                if t.rejected { "REJECT" } else { "keep  " }
            );
        }

        let _ = writeln!(s, "\n== Origins (§4.3.4) ==");
        for (outlet, (n, tor)) in &self.origins.tor_by_outlet {
            let paper = match outlet.as_str() {
                "paste" => "28/144",
                "forum" => "48/125",
                _ => "56/57",
            };
            let _ = writeln!(s, "{outlet:<8} tor {tor}/{n} (paper {paper})");
        }
        let _ = writeln!(
            s,
            "tor total      : {} (paper 132/326)",
            self.origins.tor_total
        );
        let _ = writeln!(s, "countries      : {} (paper 29)", self.origins.countries);
        let _ = writeln!(
            s,
            "blacklisted IPs: {} (paper 20)",
            self.origins.blacklisted_ips
        );

        let _ = writeln!(s, "\n== Table 2: TF-IDF keyword inference ==");
        let _ = writeln!(
            s,
            "{:<16} {:>9} {:>9} {:>9}",
            "searched word", "TFIDF_R", "TFIDF_A", "diff"
        );
        for t in self.tfidf.top_searched(10) {
            let _ = writeln!(
                s,
                "{:<16} {:>9.4} {:>9.4} {:>9.4}",
                t.term,
                t.tfidf_r,
                t.tfidf_a,
                t.diff()
            );
        }
        let _ = writeln!(
            s,
            "{:<16} {:>9} {:>9} {:>9}",
            "common word", "TFIDF_R", "TFIDF_A", "diff"
        );
        for t in self.tfidf.top_corpus(10) {
            let _ = writeln!(
                s,
                "{:<16} {:>9.4} {:>9.4} {:>9.4}",
                t.term,
                t.tfidf_r,
                t.tfidf_a,
                t.diff()
            );
        }

        let _ = writeln!(s, "\n== Extended: accesses per accessed account ==");
        for (outlet, e) in &self.extended.accesses_per_account {
            if e.is_empty() {
                continue;
            }
            let _ = writeln!(
                s,
                "{outlet:<8} accounts={:<3} median {:.0} max {:.0}",
                e.len(),
                e.median().unwrap_or(0.0),
                e.quantile(1.0).unwrap_or(0.0)
            );
        }
        let _ = writeln!(s, "\n== Extended: multi-day revisit fraction per class ==");
        for (label, frac) in &self.extended.revisit_fraction {
            let _ = writeln!(s, "{label:<12} {:.2}", frac);
        }

        let _ = writeln!(s, "\n== §4.5 sophistication ==");
        let _ = writeln!(
            s,
            "{:<10} {:>11} {:>6} {:>16} {:>7}",
            "outlet", "cfg hidden", "tor", "non-destructive", "score"
        );
        for r in &self.sophistication {
            let _ = writeln!(
                s,
                "{:<10} {:>11.2} {:>6.2} {:>16.2} {:>7.2}",
                r.outlet, r.config_hidden, r.tor, r.non_destructive, r.score
            );
        }

        if let Some(c) = &self.coverage {
            let _ = writeln!(s, "\n== Monitoring coverage (fault-injected run) ==");
            let _ = writeln!(
                s,
                "mean coverage  : {:.4} over {} accounts ({} known gaps)",
                c.mean, c.accounts, c.gap_count
            );
            let _ = writeln!(
                s,
                "degraded       : {} accounts below 1.0 (min {:.4})",
                c.degraded_accounts, c.min
            );
            for (account, cov) in &c.worst {
                if *cov < 1.0 {
                    let _ = writeln!(s, "  account {account:>3}  coverage {cov:.4}");
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_on_empty_dataset() {
        let ds = Dataset::default();
        let a = FullAnalysis::compute(&ds, &TermCounts::new(), &[], None);
        let text = a.render();
        assert!(text.contains("== Overview"));
        assert!(text.contains("Table 2"));
        assert!(text.contains("sophistication"));
        // No coverage data → the report keeps its legacy shape.
        assert!(a.coverage.is_none());
        assert!(!text.contains("Monitoring coverage"));
    }

    #[test]
    fn coverage_section_appears_when_gaps_were_tracked() {
        use pwnd_monitor::dataset::{AccountRecord, GapRecord};
        let mut ds = Dataset::default();
        for (i, cov) in [(0u32, Some(1.0)), (1, Some(0.75)), (2, Some(0.5))] {
            ds.accounts.push(AccountRecord {
                account: i,
                outlet: "paste".into(),
                advertised_region: None,
                leaked_at_secs: 0,
                hijack_detected_secs: None,
                block_detected_secs: None,
                coverage: cov,
            });
        }
        ds.gaps.push(GapRecord {
            account: 2,
            kind: "scraper".into(),
            from_secs: 100,
            until_secs: 200,
        });
        let a = FullAnalysis::compute(&ds, &TermCounts::new(), &[], None);
        let c = a.coverage.as_ref().expect("coverage stats present");
        assert_eq!(c.accounts, 3);
        assert_eq!(c.degraded_accounts, 2);
        assert!((c.mean - 0.75).abs() < 1e-9);
        assert!((c.min - 0.5).abs() < 1e-9);
        assert_eq!(c.gap_count, 1);
        assert_eq!(c.worst[0], (2, 0.5));
        let text = a.render();
        assert!(text.contains("Monitoring coverage"));
        assert!(text.contains("account   2  coverage 0.5000"));
    }
}
