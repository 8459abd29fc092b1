//! The open-loop load generator behind `serve_open_loop`.
//!
//! Arrivals follow a seeded Poisson process at a fixed rate, split over
//! a few keep-alive connections, one thread each. A request is sent when
//! it is due, whether or not earlier ones have been answered on other
//! connections; on its own connection it waits behind the one in
//! flight. Every request is timed from when it was *due*, not when it
//! was sent, so a stall in the server charges its delay to every request
//! that queued behind it instead of hiding it (the closed-loop
//! `pwnd serve-bench` stops sending while the server stalls).
//!
//! Each response body is compared byte for byte with what the caller
//! expects for its path; a non-200 status, a wrong body or a broken
//! connection is a failed request, and counts as missing every latency
//! limit.

use crate::stats::{self, Summary};
use pwnd::sim::rng::Rng;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One scheduled request: when it is due (ns after the rung starts) and
/// which path of the mix it asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, nanoseconds after the rung's start.
    pub due_ns: u64,
    /// Index into the path mix.
    pub path: usize,
}

/// A seeded Poisson arrival schedule: exponential gaps at `rate` per
/// second over `secs` seconds, each picking a path uniformly from
/// `paths`.
pub fn schedule(seed: u64, rate: f64, secs: f64, paths: usize) -> Vec<Arrival> {
    let mut rng = Rng::seed_from(seed);
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.f64()).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(Arrival {
            due_ns: (t * 1e9) as u64,
            path: rng.index(paths.max(1)),
        });
    }
}

/// What one connection observed.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Due-to-done latency per sent request, ns; `u64::MAX` if it failed.
    pub latency_ns: Vec<u64>,
    /// How late each request was sent, ns after its due time.
    pub late_ns: Vec<u64>,
    /// Requests that failed (status, body, or I/O).
    pub failed: u64,
    /// Requests never sent because the rung's deadline passed.
    pub unsent: u64,
    /// Largest number of requests that were due but not yet sent.
    pub backlog_max: u64,
    /// Requests due before the rung ended but still unsent when it did.
    pub backlog_end: u64,
    /// Response body bytes received.
    pub body_bytes: u64,
}

/// Sleep until `due` (relative to `start`), spinning through the last
/// few tens of microseconds so sleep overshoot does not show up as
/// generator lateness. The spin yields, so generator threads sharing a
/// CPU hand it to one another when a response arrives.
fn wait_until(start: Instant, due: Duration) {
    loop {
        let now = start.elapsed();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(100) {
            std::thread::sleep(left - Duration::from_micros(80));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Send `arrivals` over `stream` on their schedule, relative to `start`.
/// `rung_ns` is when the rung's arrivals end; sending stops for good at
/// `stop_ns`, and what is left counts as unsent.
pub fn drive(
    stream: TcpStream,
    start: Instant,
    arrivals: &[Arrival],
    requests: &[Vec<u8>],
    expected: Option<&[Vec<u8>]>,
    rung_ns: u64,
    stop_ns: u64,
) -> ConnResult {
    let mut r = ConnResult {
        latency_ns: Vec::with_capacity(arrivals.len()),
        late_ns: Vec::with_capacity(arrivals.len()),
        ..ConnResult::default()
    };
    let mut io_pair = stream
        .try_clone()
        .map(|read_half| (BufReader::with_capacity(1 << 16, read_half), stream));
    let mut body = Vec::new();
    let mut due_cursor = 0usize;
    let mut passed_end = false;
    for (i, a) in arrivals.iter().enumerate() {
        wait_until(start, Duration::from_nanos(a.due_ns));
        let sent = start.elapsed().as_nanos() as u64;
        if sent > stop_ns {
            r.unsent = (arrivals.len() - i) as u64;
            break;
        }
        while due_cursor < arrivals.len() && arrivals[due_cursor].due_ns <= sent {
            due_cursor += 1;
        }
        let backlog = (due_cursor - i) as u64;
        r.backlog_max = r.backlog_max.max(backlog);
        if !passed_end && sent >= rung_ns {
            passed_end = true;
            r.backlog_end = arrivals[i..]
                .iter()
                .take_while(|x| x.due_ns < rung_ns)
                .count() as u64;
        }
        let outcome = match &mut io_pair {
            Ok((reader, writer)) => writer
                .write_all(&requests[a.path])
                .and_then(|()| read_response(reader, &mut body)),
            Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
        };
        let done = start.elapsed().as_nanos() as u64;
        r.late_ns.push(sent.saturating_sub(a.due_ns));
        let ok = match outcome {
            Ok(status) => {
                r.body_bytes += body.len() as u64;
                status == 200 && expected.is_none_or(|e| e[a.path] == body)
            }
            Err(e) => {
                // The connection is gone: every later request on it fails.
                io_pair = Err(e);
                false
            }
        };
        if ok {
            r.latency_ns.push(done.saturating_sub(a.due_ns));
        } else {
            r.failed += 1;
            r.latency_ns.push(u64::MAX);
        }
    }
    r
}

/// The wire form of a `GET` for each path.
pub fn requests(paths: &[String]) -> Vec<Vec<u8>> {
    paths
        .iter()
        .map(|p| format!("GET {p} HTTP/1.1\r\nHost: pwnd\r\n\r\n").into_bytes())
        .collect()
}

/// Read one `Content-Length`-framed HTTP/1.1 response into `body`;
/// returns the status code.
fn read_response<R: BufRead + Read>(reader: &mut R, body: &mut Vec<u8>) -> io::Result<u16> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::other(format!("malformed status line {line:?}")))?;
    let mut length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "closed in headers",
            ));
        }
        let h = line.trim();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| io::Error::other("bad Content-Length"))?;
            }
        }
    }
    body.resize(length, 0);
    reader.read_exact(body)?;
    Ok(status)
}

/// One stretch of load at a fixed offered rate.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Duration, seconds.
    pub secs: f64,
    /// Requests sent.
    pub sent: u64,
    /// Failed requests among those sent.
    pub failed: u64,
    /// Requests never sent: the generator fell too far behind.
    pub unsent: u64,
    /// Latency summary (µs) per window of about a thousand arrivals;
    /// failed and unsent requests count as infinite.
    pub windows: Vec<Summary>,
    /// p99 of how late requests were sent, microseconds.
    pub late_p99_us: f64,
    /// Largest per-connection due-but-unsent count.
    pub backlog_max: u64,
    /// Requests due before the segment ended but still unsent at its
    /// end, summed over connections.
    pub backlog_end: u64,
    /// Response body bytes received.
    pub body_bytes: u64,
}

/// Run one segment against `addr` over `conns` keep-alive connections.
/// Connection `c` gets its own schedule at `rate / conns`, seeded from
/// `seed` and `c`. Sending stops `grace` after the segment's end.
#[allow(clippy::too_many_arguments)]
pub fn run_segment(
    addr: SocketAddr,
    rate: f64,
    secs: f64,
    seed: u64,
    conns: usize,
    requests: &[Vec<u8>],
    expected: Option<&[Vec<u8>]>,
    grace: Duration,
) -> io::Result<Segment> {
    let conns = conns.max(1);
    let per_conn = rate / conns as f64;
    let schedules: Vec<Vec<Arrival>> = (0..conns)
        .map(|c| {
            schedule(
                seed.wrapping_mul(0x9e37_79b9).wrapping_add(c as u64),
                per_conn,
                secs,
                requests.len(),
            )
        })
        .collect();
    let streams = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<io::Result<Vec<_>>>()?;
    let end_ns = (secs * 1e9) as u64;
    let stop_ns = end_ns + grace.as_nanos() as u64;
    let start = Instant::now() + Duration::from_millis(2);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(&schedules)
            .map(|(stream, arrivals)| {
                scope.spawn(move || {
                    drive(stream, start, arrivals, requests, expected, end_ns, stop_ns)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let window_ns = window_secs(rate, secs) * 1e9;
    let windows = ((secs * 1e9 / window_ns).round() as usize).max(1);
    let mut by_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut late_us: Vec<f64> = Vec::new();
    let mut seg = Segment {
        rate,
        secs,
        sent: 0,
        failed: 0,
        unsent: 0,
        windows: Vec::new(),
        late_p99_us: 0.0,
        backlog_max: 0,
        backlog_end: 0,
        body_bytes: 0,
    };
    for (r, arrivals) in results.iter().zip(&schedules) {
        seg.failed += r.failed;
        seg.unsent += r.unsent;
        seg.sent += r.latency_ns.len() as u64;
        seg.backlog_max = seg.backlog_max.max(r.backlog_max);
        seg.backlog_end += r.backlog_end;
        seg.body_bytes += r.body_bytes;
        late_us.extend(r.late_ns.iter().map(|&ns| ns as f64 / 1e3));
        // Unsent requests (past the end of `latency_ns`) also miss every
        // limit.
        for (i, a) in arrivals.iter().enumerate() {
            let us = match r.latency_ns.get(i) {
                Some(&ns) if ns != u64::MAX => ns as f64 / 1e3,
                _ => f64::INFINITY,
            };
            let w = ((a.due_ns as f64 / window_ns) as usize).min(windows - 1);
            by_window[w].push(us);
        }
    }
    seg.windows = by_window
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| stats::summarize(w))
        .collect();
    seg.late_p99_us = stats::percentile_sorted(&stats::sorted(&late_us), 0.99);
    Ok(seg)
}

/// Window length for a segment: about a thousand expected arrivals (so
/// a window's p99 has ten samples beyond it), and at least eight windows
/// when the segment is long enough.
pub fn window_secs(rate: f64, secs: f64) -> f64 {
    (1000.0 / rate).max(secs / 8.0).min(secs)
}

/// Window summaries folded into one: the median of the windows' medians
/// and of their tails. One stall then spoils one window, not the rung,
/// while a server that cannot keep up spoils them all.
pub fn window_median(windows: &[Summary]) -> Summary {
    let pick = |f: fn(&Summary) -> f64| stats::median(&windows.iter().map(f).collect::<Vec<_>>());
    Summary {
        n: windows.iter().map(|s| s.n).sum(),
        p50: pick(|s| s.p50),
        tail_pct: windows.iter().map(|s| s.tail_pct).fold(1.0, f64::min),
        tail: pick(|s| s.tail),
    }
}

/// One rung of the ladder: every segment run at its rate, folded.
#[derive(Clone, Debug)]
pub struct RungReport {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Total time at this rate, seconds.
    pub secs: f64,
    /// Segments folded in.
    pub segments: usize,
    /// Requests sent.
    pub sent: u64,
    /// Failed requests among those sent.
    pub failed: u64,
    /// Requests never sent, in the median segment.
    pub unsent: u64,
    /// Due-to-done latency, microseconds: [`window_median`] over every
    /// window of every segment.
    pub latency: Summary,
    /// Windows folded in.
    pub windows: usize,
    /// Median over segments of the p99 of how late requests were sent,
    /// microseconds.
    pub late_p99_us: f64,
    /// Largest per-connection due-but-unsent count in any segment.
    pub backlog_max: u64,
    /// Due-but-unsent requests at the end of the median segment.
    pub backlog_end: u64,
    /// Successful responses per second at this rate.
    pub achieved_rps: f64,
    /// Response body bytes received.
    pub body_bytes: u64,
}

/// Latency limit on the tail percentile for a rung to count as
/// sustained, in microseconds.
pub const TAIL_LIMIT_US: f64 = 1000.0;

impl RungReport {
    /// Fold segments of one rate. Medians over segments keep one
    /// disturbed segment from deciding the rung.
    pub fn combine(segments: &[Segment]) -> RungReport {
        let med =
            |f: fn(&Segment) -> f64| stats::median(&segments.iter().map(f).collect::<Vec<_>>());
        let windows: Vec<Summary> = segments.iter().flat_map(|s| s.windows.clone()).collect();
        let secs: f64 = segments.iter().map(|s| s.secs).sum();
        let sent: u64 = segments.iter().map(|s| s.sent).sum();
        let failed: u64 = segments.iter().map(|s| s.failed).sum();
        RungReport {
            rate: segments.first().map_or(0.0, |s| s.rate),
            secs,
            segments: segments.len(),
            sent,
            failed,
            unsent: med(|s| s.unsent as f64) as u64,
            latency: window_median(&windows),
            windows: windows.len(),
            late_p99_us: med(|s| s.late_p99_us),
            backlog_max: segments.iter().map(|s| s.backlog_max).max().unwrap_or(0),
            backlog_end: med(|s| s.backlog_end as f64) as u64,
            achieved_rps: (sent - failed) as f64 / secs,
            body_bytes: segments.iter().map(|s| s.body_bytes).sum(),
        }
    }

    /// Whether the server sustained this rung: the median segment sent
    /// everything and ended with no more than a millisecond of arrivals
    /// still due, and the tail stayed within [`TAIL_LIMIT_US`] (failures
    /// count as missing it).
    pub fn sustained(&self) -> bool {
        self.unsent == 0
            && self.latency.tail <= TAIL_LIMIT_US
            && (self.backlog_end as f64) <= (self.rate * 1e-3).max(2.0)
    }
}

/// The highest sustained rate, or `None` when no rung was sustained.
///
/// Start from the highest sustained rung (rungs need not be contiguous:
/// one unsteady middle rung does not hide a higher one that held). If
/// the next rung up failed on its tail, interpolate where the tail
/// crosses [`TAIL_LIMIT_US`] between the two, linearly in rate and
/// logarithmically in latency; otherwise report the sustained rung's
/// achieved rate. The interpolation keeps the figure from jumping a
/// whole rung when the knee sits near a rung's edge.
pub fn max_sustained_rps(rungs: &[RungReport]) -> Option<f64> {
    let top = rungs
        .iter()
        .filter(|r| r.sustained())
        .max_by(|a, b| a.rate.total_cmp(&b.rate))?;
    let next = rungs
        .iter()
        .filter(|r| r.rate > top.rate)
        .min_by(|a, b| a.rate.total_cmp(&b.rate));
    let (lo, hi) = (top.latency.tail, next.map_or(f64::NAN, |n| n.latency.tail));
    match next {
        Some(next) if lo > 0.0 && hi > TAIL_LIMIT_US => {
            // An infinite tail (failures) puts the crossing at `top`.
            let frac = ((TAIL_LIMIT_US / lo).ln() / (hi / lo).ln()).clamp(0.0, 1.0);
            let at = top.rate + frac * (next.rate - top.rate);
            Some(at * top.achieved_rps / top.rate)
        }
        _ => Some(top.achieved_rps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn schedule_is_seeded_and_near_its_rate() {
        let a = schedule(7, 1000.0, 2.0, 5);
        assert_eq!(a, schedule(7, 1000.0, 2.0, 5));
        assert_ne!(a, schedule(8, 1000.0, 2.0, 5));
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|x| x.path < 5));
    }

    /// A one-connection HTTP server that answers `ok` to every request
    /// but stalls `stall` before answering request number `stall_at`.
    fn stalling_server(
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut out = stream;
            let mut n = 0;
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                if line.trim().is_empty() {
                    if n == stall_at {
                        std::thread::sleep(stall);
                    }
                    n += 1;
                    let _ = out.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_is_timed_from_due_through_a_stall() {
        let stall = Duration::from_millis(60);
        let (addr, server) = stalling_server(0, stall);
        // Ten requests due every 5 ms; the first one stalls 60 ms.
        let arrivals: Vec<Arrival> = (0..10)
            .map(|i| Arrival {
                due_ns: i * 5_000_000,
                path: 0,
            })
            .collect();
        let reqs = requests(&["/x".to_string()]);
        let expected = vec![b"ok".to_vec()];
        let stream = TcpStream::connect(addr).unwrap();
        let start = Instant::now();
        let r = drive(
            stream,
            start,
            &arrivals,
            &reqs,
            Some(&expected),
            50_000_000,
            10_000_000_000,
        );
        server.join().unwrap();
        assert_eq!(r.failed, 0);
        assert_eq!(r.latency_ns.len(), 10);
        // Request 1 was due at 5 ms but could only be sent after the
        // stalled request 0 finished (>= 60 ms): its latency counts the
        // whole queueing delay from its due time.
        let stall_ns = stall.as_nanos() as u64;
        assert!(r.latency_ns[0] >= stall_ns);
        assert!(
            r.late_ns[1] >= stall_ns - 5_000_000,
            "late {}",
            r.late_ns[1]
        );
        assert!(r.latency_ns[1] >= stall_ns - 5_000_000);
        // Every request due during the stall queued behind it.
        for i in 1..10u64 {
            let floor = stall_ns.saturating_sub(i * 5_000_000);
            assert!(r.latency_ns[i as usize] >= floor, "request {i}");
        }
        // Eleven due-but-unsent at the worst point would mean a bug;
        // here at most the nine queued behind the stall.
        assert!(r.backlog_max >= 9, "backlog {}", r.backlog_max);
        // Closed-loop timing from send would have hidden it: sent-to-done
        // for request 5 is tiny even though it waited tens of ms.
        assert!(r.latency_ns[5] - r.late_ns[5] < stall_ns / 2);
    }

    #[test]
    fn wrong_bodies_and_dead_connections_fail() {
        let (addr, server) = stalling_server(usize::MAX, Duration::ZERO);
        let arrivals: Vec<Arrival> = (0..3)
            .map(|i| Arrival {
                due_ns: i * 1_000_000,
                path: 0,
            })
            .collect();
        let reqs = requests(&["/x".to_string()]);
        let expected = vec![b"no".to_vec()];
        let stream = TcpStream::connect(addr).unwrap();
        let r = drive(
            stream,
            Instant::now(),
            &arrivals,
            &reqs,
            Some(&expected),
            3_000_000,
            1_000_000_000,
        );
        server.join().unwrap();
        assert_eq!(r.failed, 3);
        assert!(r.latency_ns.iter().all(|&l| l == u64::MAX));
    }

    fn window(p50: f64, tail: f64) -> Summary {
        Summary {
            n: 1000,
            p50,
            tail_pct: 0.99,
            tail,
        }
    }

    fn segment(rate: f64, tail: f64, backlog_end: u64, unsent: u64) -> Segment {
        Segment {
            rate,
            secs: 1.0,
            sent: rate as u64 - unsent,
            failed: 0,
            unsent,
            windows: vec![window(tail / 4.0, tail); 8],
            late_p99_us: 1.0,
            backlog_max: backlog_end,
            backlog_end,
            body_bytes: 0,
        }
    }

    fn rung(rate: f64, tail: f64, backlog_end: u64, unsent: u64) -> RungReport {
        RungReport::combine(&vec![segment(rate, tail, backlog_end, unsent); 3])
    }

    #[test]
    fn max_rps_is_the_highest_sustained_rung() {
        let ladder = vec![
            rung(1000.0, 50.0, 0, 0),
            rung(10_000.0, 80.0, 0, 0),
            rung(50_000.0, 1500.0, 0, 0),    // tail over the limit
            rung(100_000.0, 400.0, 0, 0),    // a later rung that held
            rung(200_000.0, 900.0, 5000, 0), // backlog grew
            rung(400_000.0, 300.0, 0, 10),   // fell behind: unsent
        ];
        // 100k held with a 400 us tail; 200k failed on backlog with its
        // tail under the limit, so no interpolation.
        assert_eq!(max_sustained_rps(&ladder), Some(100_000.0));
        assert_eq!(max_sustained_rps(&ladder[2..3]), None);
        // 10k held at 80 us and 50k failed at 1500 us: the tail crosses
        // 1 ms at ln(1000/80)/ln(1500/80) = 86% of the way up.
        let crossing = max_sustained_rps(&ladder[..3]).unwrap();
        let frac = (1000.0f64 / 80.0).ln() / (1500.0f64 / 80.0).ln();
        assert!(
            (crossing - (10_000.0 + frac * 40_000.0)).abs() < 1e-6,
            "{crossing}"
        );
        assert!(crossing > 10_000.0 && crossing < 50_000.0);
        // Failed requests are infinite samples, so they fail the rung.
        let mut failed = segment(1000.0, 50.0, 0, 0);
        failed.failed = 20;
        failed.windows = vec![window(10.0, f64::INFINITY); 8];
        assert!(!RungReport::combine(&[failed.clone(), failed.clone(), failed]).sustained());
    }

    #[test]
    fn one_disturbed_segment_does_not_decide_the_rung() {
        let calm = segment(100_000.0, 80.0, 0, 0);
        let stalled = segment(100_000.0, 20_000.0, 9000, 50);
        let r = RungReport::combine(&[calm.clone(), stalled.clone(), calm.clone()]);
        assert!(r.sustained(), "{r:?}");
        assert_eq!((r.segments, r.windows, r.secs), (3, 24, 3.0));
        let r = RungReport::combine(&[stalled.clone(), calm, stalled]);
        assert!(!r.sustained(), "{r:?}");
    }

    #[test]
    fn one_stalled_window_does_not_decide_the_rung() {
        let steady: Vec<f64> = (0..1000).map(|i| 10.0 + f64::from(i % 7)).collect();
        let stalled: Vec<f64> = (0..1000)
            .map(|i| if i < 100 { 5000.0 } else { 10.0 })
            .collect();
        let mut windows = vec![stats::summarize(&steady); 7];
        windows.push(stats::summarize(&stalled));
        let s = window_median(&windows);
        assert_eq!(s.n, 8000);
        assert_eq!(s.tail_pct, 0.99);
        assert!(s.tail < TAIL_LIMIT_US, "{s:?}");
        // A server that cannot keep up stalls every window.
        let s = window_median(&vec![stats::summarize(&stalled); 8]);
        assert!(s.tail > TAIL_LIMIT_US, "{s:?}");
        // Windows hold about a thousand arrivals, at least eight per segment.
        assert_eq!(window_secs(2000.0, 8.0), 1.0);
        assert_eq!(window_secs(100_000.0, 1.0), 0.125);
        assert_eq!(window_secs(100.0, 2.0), 2.0);
    }
}
