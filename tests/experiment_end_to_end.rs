//! End-to-end integration tests: a full (quick-config) experiment run,
//! checked across every crate boundary.

use pwnd::analysis::figures;
use pwnd::analysis::tables::{origin_stats, overview, table1};
use pwnd::leak::plan::OutletKind;
use pwnd::monitor::export::read_jsonl;
use pwnd::monitor::DatasetWriter;
use pwnd::{Experiment, ExperimentConfig, RunOutput};
use std::sync::OnceLock;

/// One shared quick run — the assertions below all read from it.
fn run() -> &'static RunOutput {
    static RUN: OnceLock<RunOutput> = OnceLock::new();
    RUN.get_or_init(|| Experiment::new(ExperimentConfig::quick(42)).run())
}

#[test]
fn table1_groups_are_reconstructed_from_the_dataset() {
    let t = table1(&run().dataset);
    let counts: Vec<usize> = t.iter().map(|r| r.accounts).collect();
    assert_eq!(counts, vec![30, 20, 10, 20, 20]);
}

#[test]
fn every_outlet_received_accesses() {
    let ov = overview(&run().dataset);
    for outlet in ["paste", "forum", "malware"] {
        assert!(
            ov.accesses_by_outlet.get(outlet).copied().unwrap_or(0) > 0,
            "no accesses for {outlet}"
        );
    }
}

#[test]
fn dataset_never_contains_monitoring_traffic() {
    // The paper filters its own infrastructure's accesses (§4.1); no
    // dataset row may come from the infra block or resolve to the infra
    // city without being a Tor exit.
    for a in &run().dataset.accesses {
        let ip: std::net::Ipv4Addr = a.ip.parse().expect("valid ip");
        assert!(
            !pwnd::net::ip::AddressPlan::is_infra(ip),
            "infra access leaked into dataset: {a:?}"
        );
        if a.has_location_row && !a.via_tor {
            assert_ne!(a.city, pwnd::net::geolocate::INFRA_CITY, "{a:?}");
        }
    }
}

#[test]
fn no_email_ever_left_the_sinkhole() {
    // Every attacker-sent message must be captured, none delivered: the
    // ethics containment of §3.4.
    let out = run();
    let sent_observed: u64 = out.dataset.accesses.iter().map(|a| a.sent as u64).sum();
    assert!(out.ground_truth.sinkholed_messages as u64 >= sent_observed);
}

#[test]
fn hijacked_accounts_stop_contributing_after_detection() {
    // Censoring: no access on a hijacked account may have a *scraped
    // location row* first seen after the hijack detection (script
    // notifications may continue; page scraping cannot).
    let out = run();
    for rec in &out.dataset.accounts {
        let Some(ht) = rec.hijack_detected_secs else {
            continue;
        };
        for a in out
            .dataset
            .accesses
            .iter()
            .filter(|a| a.account == rec.account)
        {
            if a.has_location_row {
                assert!(
                    a.first_seen_secs <= ht,
                    "account {} scraped a row after hijack detection",
                    rec.account
                );
            }
        }
    }
}

#[test]
fn malware_accesses_are_never_destructive() {
    // Figure 1: the malware column has no hijackers and no spammers.
    let out = run();
    for a in out.dataset.accesses_for_outlet("malware") {
        let c = pwnd::analysis::classify(a);
        assert!(!c.hijacker, "malware hijacker: {a:?}");
        assert!(!c.spammer, "malware spammer: {a:?}");
    }
}

#[test]
fn malware_accesses_are_tor_and_ua_cloaked() {
    let out = run();
    let malware: Vec<_> = out
        .dataset
        .accesses_for_outlet("malware")
        .filter(|a| a.has_location_row)
        .collect();
    assert!(!malware.is_empty());
    let tor = malware.iter().filter(|a| a.via_tor).count();
    assert!(
        tor as f64 / malware.len() as f64 > 0.9,
        "{tor}/{}",
        malware.len()
    );
    assert!(malware.iter().all(|a| a.browser == "Unknown"));
}

#[test]
fn russian_paste_accounts_stay_silent_for_two_months() {
    let out = run();
    // Accounts leaked on Russian paste sites: no access before day 60.
    let russian_accounts: Vec<u32> = out
        .leaks
        .iter()
        .filter(|l| l.russian)
        .map(|l| l.account)
        .collect();
    assert_eq!(russian_accounts.len(), 10);
    for a in &out.dataset.accesses {
        if russian_accounts.contains(&a.account) {
            let rec = out.dataset.account_record(a.account).unwrap();
            let days = (a.first_seen_secs - rec.leaked_at_secs) as f64 / 86_400.0;
            assert!(days > 60.0, "russian account accessed at day {days}");
        }
    }
}

#[test]
fn blackmailer_vocabulary_reaches_table2() {
    let analysis = run().analysis();
    let bitcoin = analysis.tfidf.get("bitcoin").expect("bitcoin in table");
    assert_eq!(
        bitcoin.tfidf_a, 0.0,
        "bitcoin must be absent from the corpus"
    );
    assert!(bitcoin.tfidf_r > 0.0, "bitcoin must appear in opened mail");
    // And the searched list is dominated by sensitive terms.
    let top: Vec<&str> = analysis
        .tfidf
        .top_searched(10)
        .iter()
        .map(|t| t.term.as_str())
        .collect();
    let sensitive_hits = top
        .iter()
        .filter(|t| {
            [
                "bitcoin",
                "payment",
                "account",
                "family",
                "seller",
                "below",
                "listed",
                "results",
                "banking",
                "password",
                "salary",
                "invoice",
                "statement",
                "bitcoins",
                "localbitcoins",
                "wallet",
            ]
            .contains(*t)
        })
        .count();
    assert!(sensitive_hits >= 7, "top searched: {top:?}");
}

#[test]
fn cvm_pipeline_runs_on_fig6_vectors() {
    let analysis = run().analysis();
    assert_eq!(analysis.fig6.len(), 8);
    for outcome in &analysis.cvm {
        assert!(outcome.p_value.is_finite());
        assert!((0.0..=1.0).contains(&outcome.p_value));
    }
}

#[test]
fn overview_is_consistent_with_raw_records() {
    let out = run();
    let ov = overview(&out.dataset);
    assert_eq!(ov.total_accesses, out.dataset.accesses.len());
    let per_outlet: usize = ov.accesses_by_outlet.values().sum();
    assert_eq!(per_outlet, ov.total_accesses);
    assert!(ov.accounts_accessed <= 100);
    assert!(ov.accounts_hijacked <= 100);
}

#[test]
fn origin_stats_blacklist_subset_of_accesses() {
    let out = run();
    let stats = origin_stats(&out.dataset, Some(&out.blacklist));
    assert!(stats.blacklisted_ips <= out.dataset.accesses.len());
    assert!(stats.tor_total <= out.dataset.accesses.len());
    // Tor exit addresses never appear in the blacklist sample (we list
    // residential infections only).
    for a in &out.dataset.accesses {
        if a.via_tor {
            let ip: std::net::Ipv4Addr = a.ip.parse().unwrap();
            assert!(!out.blacklist.is_ever_listed(ip));
        }
    }
}

#[test]
fn leak_plan_covers_every_account_exactly_once() {
    let out = run();
    let mut accounts: Vec<u32> = out.leaks.iter().map(|l| l.account).collect();
    accounts.sort_unstable();
    accounts.dedup();
    assert_eq!(accounts.len(), 100);
    // Outlet labels in leak records match the dataset's account records.
    for leak in &out.leaks {
        let rec = out.dataset.account_record(leak.account).unwrap();
        assert_eq!(rec.outlet, leak.kind.label());
    }
    // Counts per outlet kind match Table 1.
    let paste = out
        .leaks
        .iter()
        .filter(|l| l.kind == OutletKind::Paste)
        .count();
    assert_eq!(paste, 50);
}

#[test]
fn forum_teaser_mechanics_are_recorded() {
    let out = run();
    // One seller + one teaser thread per forum used.
    assert_eq!(out.ground_truth.sellers.len(), 4);
    assert_eq!(out.ground_truth.teaser_threads.len(), 4);
    let mut sample_total = 0;
    for t in &out.ground_truth.teaser_threads {
        assert!(
            t.promised_total > t.sample_lines.len(),
            "teaser must promise more"
        );
        assert!(t.price_usd > 0);
        assert!(out
            .ground_truth
            .sellers
            .iter()
            .any(|s| s.handle == t.seller && s.forum == t.forum));
        sample_total += t.sample_lines.len();
    }
    // Every forum-leaked credential appears in exactly one teaser.
    assert_eq!(sample_total, 30);
    // Inquiries arrived and were never answered (they are only logged).
    assert!(!out.ground_truth.inquiries.is_empty());
}

#[test]
fn malware_campaign_log_covers_all_credentials() {
    let out = run();
    let cycles = &out.ground_truth.malware_cycles;
    assert_eq!(cycles.len(), 20, "one VM cycle per malware credential");
    let mut accounts: Vec<u32> = cycles.iter().map(|c| c.credential_account).collect();
    accounts.sort_unstable();
    accounts.dedup();
    assert_eq!(accounts.len(), 20);
    for c in cycles {
        assert!(matches!(
            c.outcome,
            pwnd::leak::malware::InfectionOutcome::Exfiltrated { .. }
        ));
        assert!(
            c.family.runs_in_vm(),
            "liveness filter removed VM-hostile samples"
        );
    }
}

#[test]
fn dataset_json_roundtrip_preserves_everything() {
    let out = run();
    let mut writer = DatasetWriter::new(Vec::new());
    writer.write_dataset(&out.dataset).unwrap();
    let jsonl = writer.finish().unwrap();
    let back = read_jsonl("stream", &jsonl[..]).unwrap();
    assert_eq!(back.accesses, out.dataset.accesses);
    assert_eq!(back.accounts, out.dataset.accounts);
    assert_eq!(back.opened_texts, out.dataset.opened_texts);
    assert_eq!(back.gaps, out.dataset.gaps);
    assert_eq!(back.to_json(), out.dataset_json());
}

#[test]
fn figures_partition_or_cover_the_accesses() {
    let out = run();
    let f1 = figures::fig1(&out.dataset);
    let n: usize = f1.rows.iter().map(|r| r.2).sum();
    assert_eq!(n, out.dataset.accesses.len());
    let f2 = figures::fig2(&out.dataset);
    let n2: usize = f2.series.iter().map(|(_, e)| e.len()).sum();
    assert_eq!(n2, out.dataset.accesses.len());
    let f4 = figures::fig4(&out.dataset);
    assert_eq!(f4.len(), out.dataset.accesses.len());
}

#[test]
fn report_renders_every_section() {
    let text = run().analysis().render();
    for section in [
        "== Overview",
        "== Table 1",
        "== Figure 1",
        "== Figure 2",
        "== Figure 3",
        "== Figure 4",
        "== Figure 5a",
        "== Figure 5b",
        "== Figure 6",
        "== Cramér–von Mises",
        "== Origins",
        "== Table 2",
        "== §4.5 sophistication",
    ] {
        assert!(text.contains(section), "missing section {section}");
    }
}
