//! The fixed outputs, pinned: the paper run's dataset and report at
//! seeds 2016, 7 and 99, the `/v1` bodies and the `pwnd report --input`
//! table of the 300-account fleet store, the quick run's dataset and
//! report in the forms no other golden pins, `pwnd trace`'s output, and
//! every seeded mailbox of the paper configuration with its `d_A`.
//!
//! The seed-2016 paper-run sha256 are the ones `pwndbench`'s `paper_run`
//! checks, recorded from the same program. The `/v1` bodies are the files under
//! `tests/golden/serve/`, which CI also compares with what the release
//! binary serves from `pwnd fleet --accounts 300`.
//!
//! The quick-run pins are the sha256 of `dataset_json()` and of
//! `analysis().render()` for `ExperimentConfig::quick(2016)` as is, with
//! decoys seeded, with the activist archetype, under
//! `FaultProfile::heavy()`, and with the provider's login filter enabled.
//! The first three pairs were recorded before the corpus generator began
//! counting TF-IDF's `d_A` from its own draws and before filler words
//! were sampled from a guide table, so they pin that neither change moved
//! a byte. The fault and filter pairs were recorded before the scraper
//! stopped opening a session per page read and before per-account
//! monitor state moved to dense id-indexed slots; those two paths are the
//! only ones that exercise the scraper's transient and blocked-read
//! handling. A change that means to alter the corpus, the analysis or
//! the monitor updates them and says why.

use pwnd::core::fleet::FleetConfig;
use pwnd::core::hash::{hex, Sha256};
use pwnd::corpus::generator::CorpusGenerator;
use pwnd::corpus::persona::PersonaFactory;
use pwnd::corpus::tokenize::{TermCounts, Tokenizer};
use pwnd::corpus::Archetype;
use pwnd::serve::{QueryIndex, ServeOptions, Server};
use pwnd::sim::Rng;
use pwnd::store::{merge_store_jsonl, run_fleet_store};
use pwnd::webmail::mailbox::Mailbox;
use pwnd::{Experiment, ExperimentConfig, FaultProfile};
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::sync::Arc;

/// Run `config` and return the sha256 of its dataset JSON and of its
/// rendered analysis.
fn shas(config: ExperimentConfig) -> (String, String) {
    let out = Experiment::new(config).run();
    (
        Sha256::digest_hex(out.dataset_json().as_bytes()),
        Sha256::digest_hex(out.analysis().render().as_bytes()),
    )
}

#[test]
fn paper_run_outputs_are_pinned() {
    let (dataset, report) = shas(ExperimentConfig::paper(2016));
    assert_eq!(
        dataset,
        "33c4e953acdef7a1446be32dbcfc118a372911a2de987b7f3c9ab0addd374387"
    );
    assert_eq!(
        report,
        "e31da7bfb9afb523e612da7b73cd96a734ea87907516994d56ed584d0b8220dc"
    );
}

/// Seeds 7 and 99 in the paper configuration, recorded before seeded
/// subject lines became codes, the CvM integral a trapezoid sum and
/// filler sampling a longer guide table: more draws, threads and test
/// statistics than the one seed-2016 pin reaches.
#[test]
fn paper_runs_at_other_seeds_are_pinned() {
    for (seed, want_dataset, want_report) in [
        (
            7,
            "6903c3a8e9b7c20e6629936012ce06c00e9c2075fb685810ef6e9e0c2a80dc24",
            "91aaed7c2b6414f509c7efa5205d30afcc46f11790e8c26b7a4a888f5677ac3b",
        ),
        (
            99,
            "55258d349f646a5dcede4ac8d3c42a9be573dd368f69f7c8883386ae6dd60a86",
            "da56d1b28f97389462db74dd25f8e4042a5d8002f4c35ed63c1355d9571615cd",
        ),
    ] {
        let (dataset, report) = shas(ExperimentConfig::paper(seed));
        assert_eq!(dataset, want_dataset, "seed {seed} dataset");
        assert_eq!(report, want_report, "seed {seed} report");
    }
}

/// `GET path` over one `Connection: close` request: the body of a 200.
fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to the daemon");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("a full head");
    assert!(head.starts_with("HTTP/1.1 200 "), "{path}: {head}");
    body.to_string()
}

#[test]
fn v1_bodies_of_the_300_account_store_are_pinned() {
    // What CI's `pwnd fleet --accounts 300 --out-dir smoke-store` builds.
    let dir = std::env::temp_dir().join(format!("pwnd-goldens-{}-v1", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    run_fleet_store(&FleetConfig::new(2016, 300, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());
    let server = Server::bind("127.0.0.1:0", index, ServeOptions::default()).unwrap();
    for (path, golden) in [
        ("/v1/healthz", include_str!("golden/serve/healthz.json")),
        ("/v1/stats", include_str!("golden/serve/stats.json")),
        ("/v1/outlets", include_str!("golden/serve/outlets.json")),
        (
            "/v1/account/0/timeline",
            include_str!("golden/serve/account-0-timeline.json"),
        ),
        (
            "/v1/account/0/accesses",
            include_str!("golden/serve/account-0-accesses.json"),
        ),
        (
            "/v1/range/8B3DA",
            include_str!("golden/serve/range-8B3DA.json"),
        ),
    ] {
        assert_eq!(get(server.addr(), path), golden, "{path}");
    }
    server.shutdown();
    fs::remove_dir_all(&dir).unwrap();
}

/// `pwnd report --input` over the 300-account store and over its merged
/// JSONL prints `tests/golden/report-300.txt`, recorded from the program
/// before the telemetry file lost its trace events.
#[test]
fn report_of_the_300_account_store_is_pinned() {
    let dir = std::env::temp_dir().join(format!("pwnd-goldens-{}-report", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = dir.join("store");
    run_fleet_store(&FleetConfig::new(2016, 300, 2), &store).unwrap();
    let merged = dir.join("merged.jsonl");
    merge_store_jsonl(&store, fs::File::create(&merged).unwrap()).unwrap();
    for input in [&store, &merged] {
        let out = Command::new(env!("CARGO_BIN_EXE_pwnd"))
            .arg("report")
            .arg("--input")
            .arg(input)
            .output()
            .expect("pwnd starts");
        assert!(out.status.success(), "{input:?}");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            include_str!("golden/report-300.txt"),
            "{input:?}"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn quick_run_outputs_are_pinned() {
    let (dataset, report) = shas(ExperimentConfig::quick(2016));
    assert_eq!(
        dataset,
        "4b9fabd878b11c650bd80ed65dfaeb71756a62620bc63c4075888a0a66ad6188"
    );
    assert_eq!(
        report,
        "550ce4e67ed2b7c6a0e92209d7e89de4ff32df9120b67cf0034ebc97a9ef8fef"
    );
}

#[test]
fn quick_run_with_decoys_outputs_are_pinned() {
    let (dataset, report) = shas(ExperimentConfig {
        seed_decoys: true,
        ..ExperimentConfig::quick(2016)
    });
    assert_eq!(
        dataset,
        "c8e868c5c37e25bb75b016c7750b3dda0319a62424c51156d3e5ba434ad0f536"
    );
    assert_eq!(
        report,
        "dce84a2628312f72772e3fdd12efbc9693df3c8a85171610f3c59c6533294992"
    );
}

#[test]
fn quick_activist_run_outputs_are_pinned() {
    let (dataset, report) = shas(ExperimentConfig {
        archetype: Archetype::Activist,
        ..ExperimentConfig::quick(2016)
    });
    assert_eq!(
        dataset,
        "d4e0e199d36bc65a0afd0985eddaef6804d95add6bcd0074ac5d24e1a717d9d3"
    );
    assert_eq!(
        report,
        "82f6d701c4786eb390fa6aaf9d48d3d527670b4fb71fa1b57167f101b86d2dd4"
    );
}

#[test]
fn quick_run_under_heavy_faults_outputs_are_pinned() {
    let mut config = ExperimentConfig::quick(2016);
    config.faults.profile = FaultProfile::heavy();
    let (dataset, report) = shas(config);
    assert_eq!(
        dataset,
        "de5ecb62b0d9392580513c4f7c968e3820f6cada4de240bc5d96bca7bd997595"
    );
    assert_eq!(
        report,
        "4e929c3ad8246761fa24412bd2a0d80af901318d83a4811905afab9940779042"
    );
}

#[test]
fn quick_run_with_login_filter_outputs_are_pinned() {
    let (dataset, report) = shas(ExperimentConfig {
        login_filter_enabled: true,
        ..ExperimentConfig::quick(2016)
    });
    assert_eq!(
        dataset,
        "b168fecc9d61b065910e1a0dc241559d9811351ac1d8a66cd4df1cf3a217758a"
    );
    assert_eq!(
        report,
        "93cc173ac0988ba26e67c89a1a11b6cdd6e59f7af3b59eff3b5126d3868bc359"
    );
}

/// The sha256 of every seeded mailbox a paper configuration writes, for
/// both archetypes at seeds 2016, 7 and 99: 600 mailboxes of 200–300
/// messages. Each message is hashed as read back from its [`Mailbox`]
/// (id, time, sender, recipients and [`Mailbox::full_text`], in id
/// order), then `d_A`'s terms and byte length. The mailboxes are drawn
/// as a run draws them, from the seed's corpus stream, though their
/// owners come from a persona stream of their own. Recorded before the
/// generator tallied its code uses as it drew them, before Zipf draws
/// read their guide slot from the raw integer and before a mailbox kept
/// its entries in one sorted `Vec`.
#[test]
fn seeded_mailboxes_are_pinned() {
    let mut sha = Sha256::new();
    let tokenizer = Tokenizer::new();
    for archetype in [Archetype::CorporateEmployee, Archetype::Activist] {
        for seed in [2016, 7, 99] {
            let config = ExperimentConfig::paper(seed);
            let mut master = Rng::seed_from(seed);
            let (mut rng_personas, mut rng_corpus) = (master.fork(1), master.fork(2));
            let mut factory = PersonaFactory::new();
            let peers = factory.generate_batch(12, |_| None, &mut rng_personas);
            let mut generator = CorpusGenerator::with_archetype(archetype);
            let mut d_a = TermCounts::new();
            for _ in 0..config.plan.total_accounts() {
                let owner = factory.generate(None, &mut rng_personas);
                let mut mailbox = Mailbox::new();
                mailbox.seed(generator.generate_mailbox(
                    &owner,
                    &peers,
                    config.min_emails,
                    config.max_emails,
                    &mut rng_corpus,
                    &mut d_a,
                ));
                for (id, m) in mailbox.messages() {
                    let text = mailbox.full_text(id).expect("listed");
                    let line = format!(
                        "{}\t{}\t{}\t{:?}\t{text}\n",
                        id.0, m.timestamp.0, m.from, m.to
                    );
                    sha.update(line.as_bytes());
                }
            }
            for (term, n) in d_a.terms(&tokenizer) {
                sha.update(format!("{term}\t{n}\n").as_bytes());
            }
            sha.update(format!("{}\n", d_a.len()).as_bytes());
        }
    }
    assert_eq!(
        hex(&sha.finalize()),
        "90cd7152d6e1ab1b3425d9030a48d9484ec2fbec5be142336f3a7c32103d0e18"
    );
}

/// The sha256 of `pwnd trace` stdout, recorded from the program while
/// it still held every event in a 65,536-slot ring and printed the ring
/// after the run. Each of these traces fits that ring (the seed-2016
/// paper run holds 56,727 events), so they pin that streaming the events
/// as they are recorded, through `--filter` and `--limit`, moved no byte.
#[test]
fn trace_output_is_pinned() {
    for (args, want) in [
        (
            &["--quick", "--seed", "2016"][..],
            "2351268cd2a56d0bc435e2ef720dc64178700157ef21d845c6f327b93def9fa8",
        ),
        (
            &["--seed", "2016"][..],
            "b4a2dcc31dc9cc8f2d35a7a4cd152b54323610056d1d0c8a1178918e421eb43b",
        ),
        (
            &[
                "--quick", "--seed", "7", "--filter", "login", "--limit", "50",
            ][..],
            "ce7c2d90b9e23acbe349e542a9ceb27598c55127954dd1c8cd5ef6c67e896c15",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pwnd"))
            .arg("trace")
            .args(args)
            .output()
            .expect("pwnd starts");
        assert!(out.status.success(), "{args:?}");
        assert_eq!(Sha256::digest_hex(&out.stdout), want, "{args:?}");
    }
}
