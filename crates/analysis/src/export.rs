//! CSV export of every figure's data series.
//!
//! The report renderer prints summaries; this module emits the full data
//! behind each figure as CSV, one file per figure, so the paper's plots
//! can be regenerated with any plotting tool
//! (`cargo run --example export_figures`).

use crate::report::FullAnalysis;
use std::fmt::Write as _;

/// One exportable CSV file.
#[derive(Clone, Debug, PartialEq)]
pub struct CsvFile {
    /// Suggested file name, e.g. `fig3_first_access.csv`.
    pub name: String,
    /// The CSV contents, header row included.
    pub contents: String,
}

fn push_csv_row(out: &mut String, fields: &[String]) {
    let escaped: Vec<String> = fields
        .iter()
        .map(|f| {
            if f.contains(',') || f.contains('"') {
                format!("\"{}\"", f.replace('"', "\"\""))
            } else {
                f.clone()
            }
        })
        .collect();
    let _ = writeln!(out, "{}", escaped.join(","));
}

/// Export every figure of `analysis` as CSV files.
pub fn figures_to_csv(analysis: &FullAnalysis) -> Vec<CsvFile> {
    let mut files = Vec::new();

    // Figure 1: stacked fractions.
    let mut f1 = String::new();
    push_csv_row(
        &mut f1,
        &[
            "outlet",
            "curious",
            "gold_digger",
            "hijacker",
            "spammer",
            "n",
        ]
        .map(String::from),
    );
    for (outlet, fr, n) in &analysis.fig1.rows {
        push_csv_row(
            &mut f1,
            &[
                outlet.clone(),
                format!("{:.4}", fr[0]),
                format!("{:.4}", fr[1]),
                format!("{:.4}", fr[2]),
                format!("{:.4}", fr[3]),
                n.to_string(),
            ],
        );
    }
    files.push(CsvFile {
        name: "fig1_taxonomy.csv".into(),
        contents: f1,
    });

    // Figures 2 and 3: ECDF point series.
    for (name, series) in [
        ("fig2_duration_cdf.csv", &analysis.fig2.series),
        ("fig3_first_access_cdf.csv", &analysis.fig3.series),
    ] {
        let mut out = String::new();
        push_csv_row(&mut out, &["series", "x", "f"].map(String::from));
        for (label, e) in series {
            for (x, f) in e.points() {
                push_csv_row(
                    &mut out,
                    &[label.clone(), format!("{x:.4}"), format!("{f:.6}")],
                );
            }
        }
        files.push(CsvFile {
            name: name.into(),
            contents: out,
        });
    }

    // Figure 4: scatter points.
    let mut f4 = String::new();
    push_csv_row(&mut f4, &["account", "outlet", "day"].map(String::from));
    for p in &analysis.fig4 {
        push_csv_row(
            &mut f4,
            &[
                p.account.to_string(),
                p.outlet.clone(),
                format!("{:.3}", p.day),
            ],
        );
    }
    files.push(CsvFile {
        name: "fig4_timeline.csv".into(),
        contents: f4,
    });

    // Figure 5: two long-format tables.
    for (name, rows) in [
        ("fig5a_browsers.csv", &analysis.fig5.browsers),
        ("fig5b_oses.csv", &analysis.fig5.oses),
    ] {
        let mut out = String::new();
        push_csv_row(&mut out, &["outlet", "label", "fraction"].map(String::from));
        for (outlet, m) in rows {
            for (label, frac) in m {
                push_csv_row(
                    &mut out,
                    &[outlet.clone(), label.clone(), format!("{frac:.4}")],
                );
            }
        }
        files.push(CsvFile {
            name: name.into(),
            contents: out,
        });
    }

    // Figure 6: raw distance vectors (the CvM inputs).
    let mut f6 = String::new();
    push_csv_row(
        &mut f6,
        &["outlet", "region", "with_location", "distance_km"].map(String::from),
    );
    for c in &analysis.fig6 {
        for d in &c.distances_km {
            push_csv_row(
                &mut f6,
                &[
                    c.outlet.clone(),
                    c.region.clone(),
                    c.with_location.to_string(),
                    format!("{d:.1}"),
                ],
            );
        }
    }
    files.push(CsvFile {
        name: "fig6_distances.csv".into(),
        contents: f6,
    });

    // Table 2: the full TF-IDF table.
    let mut t2 = String::new();
    push_csv_row(
        &mut t2,
        &["term", "tfidf_r", "tfidf_a", "diff"].map(String::from),
    );
    for s in analysis.tfidf.scores() {
        push_csv_row(
            &mut t2,
            &[
                s.term.clone(),
                format!("{:.6}", s.tfidf_r),
                format!("{:.6}", s.tfidf_a),
                format!("{:.6}", s.diff()),
            ],
        );
    }
    files.push(CsvFile {
        name: "table2_tfidf.csv".into(),
        contents: t2,
    });

    files
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_corpus::tokenize::TermCounts;
    use pwnd_monitor::dataset::Dataset;

    #[test]
    fn export_covers_every_figure() {
        let analysis = FullAnalysis::compute(&Dataset::default(), &TermCounts::new(), &[], None);
        let files = figures_to_csv(&analysis);
        let names: Vec<&str> = files.iter().map(|f| f.name.as_str()).collect();
        for expected in [
            "fig1_taxonomy.csv",
            "fig2_duration_cdf.csv",
            "fig3_first_access_cdf.csv",
            "fig4_timeline.csv",
            "fig5a_browsers.csv",
            "fig5b_oses.csv",
            "fig6_distances.csv",
            "table2_tfidf.csv",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        // Every file has a header line.
        for f in &files {
            assert!(f.contents.lines().count() >= 1, "{} empty", f.name);
            assert!(f.contents.lines().next().unwrap().contains(','));
        }
    }

    #[test]
    fn csv_escaping() {
        let mut out = String::new();
        push_csv_row(
            &mut out,
            &["plain".into(), "with,comma".into(), "with\"quote".into()],
        );
        assert_eq!(out, "plain,\"with,comma\",\"with\"\"quote\"\n");
    }
}
