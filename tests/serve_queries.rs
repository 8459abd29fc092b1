//! End-to-end tests of the breach-intelligence query daemon (`pwnd
//! serve`): every versioned endpoint is byte-stable across server
//! restarts, `/v1/stats` agrees exactly with the offline `pwnd report`
//! aggregates, concurrent clients never observe a 5xx, the token
//! bucket answers overload with `429` + `Retry-After`, a request
//! split by a pause longer than the read timeout is read whole, idle
//! connections and slow drips are cut off at the request deadline
//! before they can starve the worker pool, a request body is refused
//! with `413` instead of being read as the next request, a
//! `Connection: close` header is honoured in any letter case, and an
//! oversized request line or header block is refused with `414` or
//! `431`.

use pwnd::core::fleet::FleetConfig;
use pwnd::serve::loadgen::query_mix;
use pwnd::serve::{QueryIndex, RateLimit, ServeOptions, Server, ROUTES};
use pwnd::store::{run_fleet_store, store_overview};
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fresh scratch directory under the system temp dir, unique per
/// test name so concurrently running tests never collide.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwnd-serve-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One parsed HTTP response: status code, raw header lines, body.
struct Response {
    status: u16,
    headers: Vec<String>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        let prefix = format!("{}:", name.to_ascii_lowercase());
        self.headers
            .iter()
            .find(|h| h.to_ascii_lowercase().starts_with(&prefix))
            .map(|h| h[prefix.len()..].trim())
    }
}

/// Read one `Content-Length`-framed response off a connection, which
/// may stay open for the next one.
fn read_response(reader: &mut impl BufRead) -> Response {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read a response line");
        assert!(line.ends_with('\n'), "connection closed mid-head: {line:?}");
        if line == "\r\n" {
            break;
        }
        lines.push(line.trim_end().to_owned());
    }
    let status_line = lines.remove(0);
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line: {status_line}"));
    let mut response = Response {
        status,
        headers: lines,
        body: String::new(),
    };
    let length = response.header("Content-Length").expect("Content-Length");
    let mut body = vec![0; length.parse().expect("numeric Content-Length")];
    reader.read_exact(&mut body).expect("read the body");
    response.body = String::from_utf8(body).expect("UTF-8 body");
    response
}

/// Issue one `GET` (or another method) over a fresh connection.
fn request(server: &Server, method: &str, path: &str) -> Response {
    let mut stream = TcpStream::connect(server.addr()).expect("connect to the daemon");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    read_response(&mut BufReader::new(stream))
}

fn get(server: &Server, path: &str) -> Response {
    request(server, "GET", path)
}

/// Bind a server over `index` on an ephemeral port with `threads`
/// workers and no rate limit.
fn spawn(index: &Arc<QueryIndex>, threads: usize) -> Server {
    let opts = ServeOptions {
        threads,
        ..ServeOptions::default()
    };
    Server::bind("127.0.0.1:0", Arc::clone(index), opts).expect("bind ephemeral port")
}

#[test]
fn responses_are_byte_stable_across_restarts_and_match_offline_report() {
    let dir = test_dir("stable");
    run_fleet_store(&FleetConfig::new(23, 60, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());

    // One concrete path per route pattern, plus a sweep over every
    // account and every populated range bucket.
    let mut paths = vec![
        "/v1/healthz".to_owned(),
        "/v1/stats".to_owned(),
        "/v1/outlets".to_owned(),
    ];
    for id in index.account_ids() {
        paths.push(format!("/v1/account/{id}/timeline"));
        paths.push(format!("/v1/account/{id}/accesses"));
    }
    for prefix in index.range_prefixes() {
        paths.push(format!("/v1/range/{prefix}"));
    }
    assert!(paths.len() > ROUTES.len(), "sweep covers every route");

    let first = spawn(&index, 4);
    let baseline: Vec<String> = paths.iter().map(|p| get(&first, p).body).collect();
    for (path, body) in paths.iter().zip(&baseline) {
        assert!(body.ends_with('\n'), "{path}: body is newline-terminated");
        // Re-asking the same server is trivially stable.
        assert_eq!(&get(&first, path).body, body, "{path} drifted in-process");
    }
    first.shutdown();

    // A brand-new process-equivalent (fresh index from the same bytes,
    // fresh server) must reproduce every body byte for byte.
    let reloaded = Arc::new(QueryIndex::from_store(&dir).unwrap());
    let second = spawn(&reloaded, 4);
    for (path, body) in paths.iter().zip(&baseline) {
        assert_eq!(
            &get(&second, path).body,
            body,
            "{path} drifted across restart"
        );
    }

    // `/v1/stats` repeats the offline reporter's numbers exactly.
    let offline = store_overview(&dir).unwrap();
    let stats = get(&second, "/v1/stats").body;
    for (key, value) in [
        ("total_accesses", offline.total_accesses as u64),
        ("emails_opened", offline.emails_opened),
        ("emails_sent", offline.emails_sent),
        ("drafts_created", offline.drafts_created),
        ("accounts_accessed", offline.accounts_accessed as u64),
        ("accounts_blocked", offline.accounts_blocked as u64),
        ("accounts_hijacked", offline.accounts_hijacked as u64),
    ] {
        let needle = format!("\"{key}\": {value}");
        assert!(
            stats.contains(&needle),
            "stats is missing `{needle}`:\n{stats}"
        );
    }
    second.shutdown();

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn error_envelopes_cover_bad_ids_unknown_routes_and_methods() {
    let dir = test_dir("errors");
    run_fleet_store(&FleetConfig::new(5, 20, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());
    let server = spawn(&index, 4);

    let not_a_number = get(&server, "/v1/account/zero/timeline");
    assert_eq!(not_a_number.status, 400);
    assert!(not_a_number
        .body
        .contains("\"status\": \"invalid_account\""));

    let unknown = get(&server, "/v1/account/999999/timeline");
    assert_eq!(unknown.status, 404);
    assert!(unknown.body.contains("\"status\": \"unknown_account\""));

    let lowercase = get(&server, "/v1/range/8b3da");
    assert_eq!(lowercase.status, 400, "range prefixes are uppercase hex");
    assert!(lowercase.body.contains("\"status\": \"invalid_prefix\""));

    let unmatched = get(&server, "/v2/stats");
    assert_eq!(unmatched.status, 404);
    assert!(unmatched.body.contains("\"status\": \"not_found\""));

    let post = request(&server, "POST", "/v1/stats");
    assert_eq!(post.status, 405);
    assert_eq!(post.header("Allow"), Some("GET"));

    // An unknown-but-valid prefix is an empty bucket, not an error: the
    // range endpoint must not leak which prefixes exist.
    let empty = get(&server, "/v1/range/00000");
    assert_eq!(empty.status, 200);
    assert!(empty.body.contains("\"count\": 0"), "{}", empty.body);

    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_see_no_server_errors() {
    let dir = test_dir("concurrent");
    run_fleet_store(&FleetConfig::new(11, 40, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());
    // One worker per client: each keep-alive connection owns a worker
    // for its lifetime, so the pool must be at least as wide.
    let server = spawn(&index, 6);

    // 6 clients, 100 requests each over one keep-alive connection,
    // each client starting the shared query mix at its own offset.
    let paths = Arc::new(query_mix(&index, 8));
    let clients: Vec<_> = (0..6)
        .map(|c| {
            let (addr, paths) = (server.addr(), Arc::clone(&paths));
            std::thread::spawn(move || {
                let mut out = TcpStream::connect(addr).expect("connect to the daemon");
                let mut reader = BufReader::new(out.try_clone().unwrap());
                (0..100)
                    .map(|i| {
                        let path = &paths[(c + i) % paths.len()];
                        write!(out, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
                        (path.clone(), read_response(&mut reader).status)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut answered = 0;
    for client in clients {
        for (path, status) in client.join().expect("client thread") {
            assert_eq!(status, 200, "{path}");
            answered += 1;
        }
    }
    assert_eq!(answered, 600);
    server.shutdown();

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_header_split_across_a_read_timeout_is_read_whole() {
    let dir = test_dir("split");
    run_fleet_store(&FleetConfig::new(13, 20, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());
    let server = spawn(&index, 4);

    // The daemon's read timeout is 250 ms; pause longer than that in
    // the middle of the Connection header.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnec").unwrap();
    std::thread::sleep(Duration::from_millis(600));
    write!(stream, "tion: close\r\n\r\n").unwrap();
    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader);
    assert_eq!(response.status, 200);
    assert_eq!(response.header("Connection"), Some("close"));
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("the daemon closes the connection");
    assert!(rest.is_empty(), "{rest:?}");
    server.shutdown();

    let _ = fs::remove_dir_all(&dir);
}

/// Ask for `/v1/healthz` over a fresh connection and return how long
/// after `started` the answer came.
fn answer_time_behind(server: &Server, started: Instant) -> Duration {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    assert_eq!(read_response(&mut BufReader::new(stream)).status, 200);
    started.elapsed()
}

/// The daemon's reply to a connection that stalled mid-request: one
/// `408` with `Connection: close`, then EOF.
fn assert_timed_out(stalled: &TcpStream) {
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stalled);
    let response = read_response(&mut reader);
    assert_eq!(response.status, 408, "{}", response.body);
    assert!(response.body.contains("\"status\": \"request_timeout\""));
    assert_eq!(response.header("Connection"), Some("close"));
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("EOF after the 408");
    assert!(rest.is_empty(), "{rest:?}");
}

#[test]
fn idle_connections_cannot_starve_the_worker_pool() {
    let dir = test_dir("idle");
    run_fleet_store(&FleetConfig::new(13, 20, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());
    let threads = 4;
    let server = spawn(&index, threads);

    // One connection per worker. All but the first send nothing; the
    // first sends part of its request line and stalls past the request
    // deadline.
    let started = Instant::now();
    let held: Vec<TcpStream> = (0..threads)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    write!(&held[0], "GET /v1/hea").unwrap();
    let waited = answer_time_behind(&server, started);
    assert!(waited < Duration::from_secs(3), "answered after {waited:?}");

    // The silent connections were closed without a response; the
    // stalled one got a 408.
    for mut idle in &held[1..] {
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(idle.read(&mut [0; 1]).unwrap(), 0, "closed by the daemon");
    }
    assert_timed_out(&held[0]);
    server.shutdown();

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn slow_drips_get_408_and_cannot_starve_the_worker_pool() {
    let dir = test_dir("drip");
    run_fleet_store(&FleetConfig::new(13, 20, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());
    let threads = 4;
    let server = spawn(&index, threads);

    // Every worker holds a connection that sent one byte and stalls.
    let started = Instant::now();
    let drips: Vec<TcpStream> = (0..threads)
        .map(|_| {
            let mut drip = TcpStream::connect(server.addr()).unwrap();
            drip.write_all(b"G").unwrap();
            drip
        })
        .collect();
    let waited = answer_time_behind(&server, started);
    assert!(waited < Duration::from_secs(3), "answered after {waited:?}");
    for drip in &drips {
        assert_timed_out(drip);
    }
    server.shutdown();

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_request_body_is_refused_not_read_as_a_request() {
    let dir = test_dir("body");
    run_fleet_store(&FleetConfig::new(13, 20, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());
    let server = spawn(&index, 4);

    // The body is itself a whole request; a daemon that ignored
    // Content-Length would answer it as a second one.
    let smuggled = "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    for framing in [
        format!("Content-Length: {}", smuggled.len()),
        "Transfer-Encoding: chunked".to_owned(),
    ] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write!(
            stream,
            "POST /v1/healthz HTTP/1.1\r\nHost: t\r\n{framing}\r\n\r\n{smuggled}"
        )
        .unwrap();
        let mut reader = BufReader::new(stream);
        let response = read_response(&mut reader);
        assert_eq!(response.status, 413, "{framing}: {}", response.body);
        assert!(response.body.contains("\"status\": \"content_too_large\""));
        assert_eq!(response.header("Connection"), Some("close"));
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("EOF after the 413");
        assert!(rest.is_empty(), "{framing}: a second response: {rest:?}");
    }
    server.shutdown();

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let dir = test_dir("pipeline");
    run_fleet_store(&FleetConfig::new(13, 20, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());
    let server = spawn(&index, 4);

    // Three requests in one write, the last closing the connection.
    let paths = ["/v1/stats", "/v2/nothing", "/v1/healthz"];
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut pipeline = String::new();
    for (i, path) in paths.iter().enumerate() {
        let close = if i + 1 == paths.len() {
            "Connection: close\r\n"
        } else {
            ""
        };
        pipeline.push_str(&format!("GET {path} HTTP/1.1\r\nHost: t\r\n{close}\r\n"));
    }
    stream.write_all(pipeline.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    for path in paths {
        let response = read_response(&mut reader);
        assert_eq!(response.body, get(&server, path).body, "{path}");
    }
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("EOF after the last response");
    assert!(rest.is_empty(), "{rest:?}");
    server.shutdown();

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_connection_header_in_any_case_closes_the_connection() {
    let dir = test_dir("header-case");
    run_fleet_store(&FleetConfig::new(13, 20, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());
    let server = spawn(&index, 4);

    for header in ["CONNECTION: close", "CoNNection: close"] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write!(
            stream,
            "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n{header}\r\n\r\n"
        )
        .unwrap();
        let mut reader = BufReader::new(stream);
        let response = read_response(&mut reader);
        assert_eq!(response.status, 200);
        assert_eq!(response.header("Connection"), Some("close"), "{header}");
        let mut rest = Vec::new();
        reader
            .read_to_end(&mut rest)
            .unwrap_or_else(|e| panic!("{header}: no EOF after the response: {e}"));
        assert!(rest.is_empty(), "{rest:?}");
    }
    server.shutdown();

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn token_bucket_answers_overload_with_429_and_retry_after() {
    let dir = test_dir("ratelimit");
    run_fleet_store(&FleetConfig::new(3, 20, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());
    let opts = ServeOptions {
        threads: 4,
        rate: Some(RateLimit::per_second(2)),
        ..ServeOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&index), opts).unwrap();

    // Burst well past the bucket over a single keep-alive connection —
    // no process-spawn latency to refill the bucket behind our back.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut ok = 0u32;
    let mut limited = 0u32;
    let mut raw = Vec::new();
    for _ in 0..10 {
        write!(stream, "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    }
    write!(
        stream,
        "GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    for head in text.split("HTTP/1.1 ").skip(1) {
        match head.split_whitespace().next() {
            Some("200") => ok += 1,
            Some("429") => {
                limited += 1;
                assert!(
                    head.to_ascii_lowercase().contains("retry-after:"),
                    "429 without Retry-After:\n{head}"
                );
                assert!(head.contains("\"status\": \"rate_limited\""), "{head}");
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert!(ok >= 1, "the burst allowance admits at least one request");
    assert!(
        limited >= 1,
        "11 instant requests at 2 req/s must trip the limiter"
    );
    server.shutdown();

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn oversized_request_lines_and_headers_get_4xx_envelopes() {
    let dir = test_dir("oversized");
    run_fleet_store(&FleetConfig::new(5, 20, 1), &dir).unwrap();
    let index = Arc::new(QueryIndex::from_store(&dir).unwrap());
    let server = spawn(&index, 4);

    // 1 MiB with no newline, after a request line's start (414: the
    // line is capped at 8 KiB) or after a whole request line (431: the
    // headers are capped at 16 KiB).
    let mib = vec![b'a'; 1 << 20];
    for (head, status, label) in [
        ("GET /", 414, "uri_too_long"),
        (
            "GET /v1/healthz HTTP/1.1\r\nX-Pad: ",
            431,
            "headers_too_large",
        ),
    ] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(head.as_bytes()).unwrap();
        // The daemon stops reading soon after it answers, so the
        // tail of the write may fail.
        let _ = stream.write_all(&mib);
        let response = read_response(&mut BufReader::new(stream));
        assert_eq!(response.status, status, "{}", response.body);
        assert!(
            response
                .body
                .contains(&format!("\"code\": {status},\n    \"status\": \"{label}\"")),
            "{}",
            response.body
        );
        assert_eq!(response.header("Connection"), Some("close"));
        // The daemon still answers a request on a fresh connection.
        assert_eq!(get(&server, "/v1/healthz").status, 200);
    }
    server.shutdown();

    let _ = fs::remove_dir_all(&dir);
}
