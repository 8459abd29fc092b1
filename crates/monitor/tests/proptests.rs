//! Property tests for the typed JSONL decoder and the notification
//! collector.
//!
//! [`decode_record`] reads the writer's compact layout field by field
//! and hands every other line to the generic path. Its contract is that
//! nobody can tell the difference: on lines [`DatasetWriter`] wrote, and
//! on those lines with any single byte changed, inserted or removed, or
//! cut short, it gives the record `Json::parse` + `from_json_value`
//! gives, or fails where that fails — and never panics. The JSONL line
//! reader and `read_jsonl` take any bytes cut anywhere without a panic,
//! and accept a stream only when every record line in it decodes.
//!
//! [`NotificationCollector`] dedupes on `(account, seq)` and indexes
//! heartbeats through dense per-account tables; on any arrival order,
//! with or without in-transit loss and redelivery, it stores, counts and
//! answers exactly what a plain set-and-map model does.

use proptest::prelude::*;
use pwnd_corpus::email::EmailId;
use pwnd_faults::{FaultPlan, FaultProfile, NotificationFate};
use pwnd_monitor::dataset::{AccountRecord, Dataset, GapRecord, ParsedAccess};
use pwnd_monitor::export::{
    decode_record, for_each_line, read_jsonl, DatasetWriter, Record, RecordTag,
};
use pwnd_monitor::{Notification, NotificationCollector, NotificationKind};
use pwnd_net::access::CookieId;
use pwnd_sim::{SimDuration, SimTime};
use pwnd_telemetry::json::Json;
use pwnd_webmail::account::AccountId;
use std::collections::{BTreeMap, BTreeSet};
use std::io::BufRead;

/// A splitmix64 stream: one proptest seed drives a whole dataset.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// Plain text most of the time; otherwise escapes, control bytes
    /// and non-ASCII (two-, three- and four-byte UTF-8).
    fn string(&mut self) -> String {
        const PIECES: &[&str] = &[
            "a", "Rio", " ", "0", "\"", "\\", "/", "\n", "\r", "\t", "\u{1}", "\u{1f}", "é", "中",
            "😀", "\u{7f}", "null", ",", ":", "}",
        ];
        let plain = self.below(3) > 0;
        (0..self.below(8))
            .map(|_| {
                if plain {
                    ["Chrome", "10.1.2.3", "paste", "x"][self.below(4) as usize]
                } else {
                    PIECES[self.below(PIECES.len() as u64) as usize]
                }
            })
            .collect()
    }

    fn opt_string(&mut self) -> Option<String> {
        self.flip().then(|| self.string())
    }

    /// Integers at and around the edges of `u32` and `u64`.
    fn u64(&mut self) -> u64 {
        match self.below(4) {
            0 => self.below(1000),
            1 => u64::MAX - self.below(3),
            2 => u64::from(u32::MAX) + self.below(3) - 1,
            _ => self.next(),
        }
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    /// Floats of every shape the writer prints: integral (`5.0`),
    /// negative, tiny, huge, signed zero, and non-finite (`null`).
    fn f64(&mut self) -> f64 {
        match self.below(8) {
            0 => self.below(200) as f64 - 100.0,
            1 => -0.0,
            2 => f64::from_bits(self.next()),
            3 => 1e-300 * self.below(10) as f64,
            4 => 1e300,
            5 => f64::NAN,
            _ => (self.next() as i64) as f64 * 1e-9,
        }
    }

    fn dataset(&mut self) -> Dataset {
        let accesses = (0..self.below(4))
            .map(|_| ParsedAccess {
                account: self.u32(),
                cookie: self.u64(),
                first_seen_secs: self.u64(),
                last_seen_secs: self.u64(),
                ip: self.string(),
                country: self.opt_string(),
                city: self.string(),
                lat: self.f64(),
                lon: self.f64(),
                browser: self.string(),
                os: self.string(),
                via_tor: self.flip(),
                opened: self.u32(),
                sent: self.u32(),
                drafts: self.u32(),
                starred: self.u32(),
                hijacker: self.flip(),
                has_location_row: self.flip(),
            })
            .collect();
        let accounts = (0..self.below(4))
            .map(|_| AccountRecord {
                account: self.u32(),
                outlet: self.string(),
                advertised_region: self.opt_string(),
                leaked_at_secs: self.u64(),
                hijack_detected_secs: self.flip().then(|| self.u64()),
                block_detected_secs: self.flip().then(|| self.u64()),
                coverage: self.flip().then(|| self.f64()),
            })
            .collect();
        let opened_texts = (0..self.below(3)).map(|_| self.string()).collect();
        let gaps = (0..self.below(3))
            .map(|_| GapRecord {
                account: self.u32(),
                kind: self.string(),
                from_secs: self.u64(),
                until_secs: self.u64(),
            })
            .collect();
        Dataset {
            accesses,
            accounts,
            opened_texts,
            gaps,
        }
    }
}

/// The dataset's JSONL lines, as [`DatasetWriter`] writes them.
fn written_lines(ds: &Dataset) -> Vec<String> {
    let mut w = DatasetWriter::new(Vec::new());
    w.write_dataset(ds).unwrap();
    let text = String::from_utf8(w.finish().unwrap()).unwrap();
    text.lines().map(String::from).collect()
}

/// The generic path, spelled out: `Json::parse`, then the record
/// kind's `from_json_value`. `None` wherever it fails.
fn generic(line: &str) -> Option<Record> {
    let obj = Json::parse(line).ok()?;
    let value = obj.get("value")?;
    match RecordTag::parse(obj.get("record")?.as_str()?)? {
        RecordTag::Access => ParsedAccess::from_json_value(value)
            .ok()
            .map(Record::Access),
        RecordTag::Account => AccountRecord::from_json_value(value)
            .ok()
            .map(Record::Account),
        RecordTag::OpenedText => value.as_str().map(|t| Record::OpenedText(t.to_string())),
        RecordTag::Gap => GapRecord::from_json_value(value).ok().map(Record::Gap),
    }
}

/// Both decoders on one line. `Debug` is compared, not `==`, so a
/// float must match bit for bit (`-0.0` is not `0.0`).
fn agree(line: &str) -> Result<(), TestCaseError> {
    let typed = decode_record(line).ok();
    prop_assert_eq!(
        format!("{typed:?}"),
        format!("{:?}", generic(line)),
        "line {:?}",
        line
    );
    Ok(())
}

/// Bytes a mutation is likely to make matter: the layout's own
/// punctuation, number and literal characters, whitespace, and
/// anything at all.
fn mutation_byte(g: &mut Gen) -> u8 {
    const SALIENT: &[u8] = b"\"\\,:{}[]0123456789.eE+-ntfrul \t\n";
    if g.flip() {
        SALIENT[g.below(SALIENT.len() as u64) as usize]
    } else {
        g.next() as u8
    }
}

/// A few accounts' notifications in arbitrary order: mostly fresh seqs
/// from one increasing counter (some skipped, as if never sent), and
/// repeats of earlier seqs on the same or another account.
fn notifications(g: &mut Gen) -> Vec<Notification> {
    let mut next_seq = 0u64;
    (0..g.below(120))
        .map(|_| {
            let seq = match g.below(5) {
                0 if next_seq > 0 => g.below(next_seq),
                1 => {
                    next_seq += 1 + g.below(4);
                    next_seq
                }
                _ => {
                    next_seq += 1;
                    next_seq
                }
            };
            let email = EmailId(g.below(50));
            let kind = match g.below(6) {
                0 => NotificationKind::Opened {
                    email,
                    text: "payment".into(),
                },
                1 => NotificationKind::Starred { email },
                2 => NotificationKind::Sent {
                    email,
                    recipients: 2,
                },
                _ => NotificationKind::Heartbeat,
            };
            Notification {
                account: AccountId([0, 1, 2, 5][g.below(4) as usize]),
                at: SimTime::from_secs(g.below(20) * 43_200),
                seq,
                cookie: g.flip().then_some(CookieId(g.below(3))),
                kind,
            }
        })
        .collect()
}

/// The collector's contract, kept with a plain set and map.
#[derive(Default)]
struct CollectorModel {
    stored: Vec<Notification>,
    seen: BTreeSet<(u32, u64)>,
    last_heartbeat: BTreeMap<u32, SimTime>,
    duplicates: u64,
    lost: u64,
}

impl CollectorModel {
    fn receive(&mut self, plan: &FaultPlan, n: &Notification) {
        match plan.notification_fate(n.account.0, n.seq) {
            NotificationFate::Lose => self.lost += 1,
            NotificationFate::Deliver => self.deliver(n),
            NotificationFate::DeliverTwice => {
                self.deliver(n);
                self.deliver(n);
            }
        }
    }

    fn deliver(&mut self, n: &Notification) {
        if !self.seen.insert((n.account.0, n.seq)) {
            self.duplicates += 1;
            return;
        }
        if n.kind == NotificationKind::Heartbeat {
            let last = self.last_heartbeat.entry(n.account.0).or_insert(n.at);
            *last = (*last).max(n.at);
        }
        self.stored.push(n.clone());
    }

    /// Consecutive received heartbeats of `account` further apart than
    /// `min_gap`.
    fn heartbeat_gaps(&self, account: u32, min_gap: SimDuration) -> Vec<(SimTime, SimTime)> {
        let mut beats: Vec<SimTime> = self
            .stored
            .iter()
            .filter(|n| n.account.0 == account && n.kind == NotificationKind::Heartbeat)
            .map(|n| n.at)
            .collect();
        beats.sort_unstable();
        beats
            .windows(2)
            .filter(|w| w[1].since(w[0]) > min_gap)
            .map(|w| (w[0], w[1]))
            .collect()
    }
}

proptest! {
    /// Under the default plan and under a lossy, duplicating one, the
    /// collector stores, dedupes and indexes exactly as the model does.
    #[test]
    fn collector_matches_a_set_and_map_model(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let input = notifications(&mut g);
        let lossy = FaultProfile {
            notification_loss_rate: 0.2,
            notification_dup_rate: 0.3,
            ..FaultProfile::none()
        };
        let plans = [
            FaultPlan::default(),
            FaultPlan::compile(seed, &lossy, SimDuration::days(30)),
        ];
        for plan in plans {
            let mut collector = NotificationCollector::new();
            collector.set_fault_plan(plan.clone());
            let mut model = CollectorModel::default();
            for n in &input {
                collector.receive(n.clone());
                model.receive(&plan, n);
            }
            prop_assert_eq!(collector.all(), &model.stored[..]);
            prop_assert_eq!(collector.duplicates_detected(), model.duplicates);
            prop_assert_eq!(collector.lost_in_transit(), model.lost);
            for account in 0..8 {
                prop_assert_eq!(
                    collector.last_heartbeat(AccountId(account)),
                    model.last_heartbeat.get(&account).copied()
                );
                for days in [0, 1, 3] {
                    let min_gap = SimDuration::days(days);
                    prop_assert_eq!(
                        collector.heartbeat_gaps(AccountId(account), min_gap),
                        model.heartbeat_gaps(account, min_gap)
                    );
                }
            }
        }
    }

    /// On every line the writer writes, the typed decoder gives the
    /// generic path's record, or fails where it fails (a non-finite
    /// float is written as `null`, which no float field accepts).
    #[test]
    fn decoder_equals_generic_path_on_written_lines(seed in any::<u64>()) {
        let ds = Gen(seed).dataset();
        for line in written_lines(&ds) {
            agree(&line)?;
        }
    }

    /// Change, insert or remove one byte anywhere, or cut the line
    /// short: both decoders accept with the same record or both fail.
    #[test]
    fn decoder_equals_generic_path_on_mutated_lines(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let ds = g.dataset();
        for line in written_lines(&ds) {
            let bytes = line.as_bytes();
            for _ in 0..24 {
                let mut m = bytes.to_vec();
                let pos = g.below(bytes.len() as u64 + 1) as usize;
                match g.below(4) {
                    0 if pos < m.len() => m[pos] = mutation_byte(&mut g),
                    1 => m.insert(pos, mutation_byte(&mut g)),
                    2 if pos < m.len() => {
                        m.remove(pos);
                    }
                    _ => m.truncate(pos),
                }
                if let Ok(mutated) = String::from_utf8(m) {
                    agree(&mutated)?;
                }
            }
        }
    }

    /// Arbitrary bytes cut at an arbitrary point (written lines with
    /// bytes changed, inserted or removed, or plain noise) never panic
    /// the line reader or `read_jsonl`. An `Ok` read decoded every
    /// non-blank line, and an error names a line inside the input, no
    /// later than the line reader's own.
    #[test]
    fn line_reader_and_read_jsonl_take_only_whole_records(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut bytes: Vec<u8> = if g.below(8) == 0 {
            (0..g.below(300)).map(|_| mutation_byte(&mut g)).collect()
        } else {
            let lines = written_lines(&g.dataset());
            lines.iter().flat_map(|l| [l.as_bytes(), b"\n"].concat()).collect()
        };
        for _ in 0..g.below(4) {
            let pos = g.below(bytes.len() as u64 + 1) as usize;
            match g.below(3) {
                0 if pos < bytes.len() => bytes[pos] = mutation_byte(&mut g),
                1 => bytes.insert(pos, mutation_byte(&mut g)),
                _ if pos < bytes.len() => {
                    bytes.remove(pos);
                }
                _ => {}
            }
        }
        let mut cut = g.below(bytes.len() as u64 + 1) as usize;
        if g.flip() {
            // Half the cuts fall at a line end, where a stream can read whole.
            cut = bytes[..cut].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        }
        let input = &bytes[..cut];
        let newlines = input.iter().filter(|&&b| b == b'\n').count();
        let lines_in_input = newlines + usize::from(!input.is_empty() && !input.ends_with(b"\n"));
        let line_of = |e: std::io::Error| -> Result<usize, TestCaseError> {
            let msg = e.to_string();
            let n = msg.strip_prefix("in: line ").and_then(|rest| rest.split(':').next());
            let n = n.and_then(|n| n.parse::<usize>().ok());
            prop_assert!(n.is_some_and(|n| (1..=lines_in_input).contains(&n)), "{}", msg);
            Ok(n.unwrap_or(0))
        };

        let mut last = 0;
        let scanned = for_each_line("in", input, |n, _| {
            last = n;
            Ok(())
        });
        match read_jsonl("in", input) {
            Ok(ds) => {
                prop_assert!(scanned.is_ok());
                prop_assert_eq!(last, lines_in_input);
                let mut records = 0;
                for line in input.lines() {
                    let line = line.expect("an Ok read saw only UTF-8");
                    if !line.trim().is_empty() {
                        prop_assert!(decode_record(&line).is_ok(), "{:?}", line);
                        records += 1;
                    }
                }
                let read = ds.accesses.len() + ds.accounts.len() + ds.opened_texts.len();
                prop_assert_eq!(read + ds.gaps.len(), records);
            }
            Err(e) => {
                let at = line_of(e)?;
                if let Err(e) = scanned {
                    prop_assert!(at <= line_of(e)?);
                }
            }
        }
    }
}
