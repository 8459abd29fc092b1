//! The HTTP/1.1 front end: router, worker-thread pool, rate limiting.
//!
//! Dependency-free by design — a std [`TcpListener`], an acceptor
//! thread, and a bounded pool of worker threads pulling accepted
//! connections off an `mpsc` queue. Workers speak just enough
//! HTTP/1.1 for the API: bodiless `GET` requests, keep-alive and
//! pipelining, `Content-Length`-framed JSON responses. One worker owns
//! one connection until the peer closes it, fails to send a whole
//! request head within 2 s of accept or of the last response, or the
//! server shuts down, so the pool size bounds concurrent connections;
//! size [`ServeOptions::threads`] to the expected client count.
//!
//! Request handling is deliberately boring: read into one buffer per
//! connection, frame it with the pure `parse_request` (which refuses
//! bodies and oversized heads), consult the token bucket, dispatch on
//! the route table ([`ROUTES`]), let the [`QueryIndex`] render the
//! body. Every error path returns the JSON error envelope documented in
//! `API.md` (`{"error": {"code", "status", "message"}}`). Per-request
//! telemetry — `serve.requests{route}`, `serve.responses{status}`,
//! and the `serve.latency_us{route}` histograms — goes through the
//! same [`TelemetrySink`] the simulation uses, and is reported by the
//! CLI when the daemon exits.

use crate::index::{QueryIndex, RANGE_PREFIX_LEN};
use pwnd_telemetry::json::Json;
use pwnd_telemetry::TelemetrySink;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One registered endpoint, as listed by `pwnd serve --print-routes`
/// and cross-checked against `API.md` in CI.
#[derive(Clone, Copy, Debug)]
pub struct Route {
    /// HTTP method (always `GET` in `/v1`).
    pub method: &'static str,
    /// Path pattern with `{placeholders}` for variable segments.
    pub pattern: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// The `/v1` route table — the single source of truth for what the
/// router answers; `API.md` must document exactly these.
pub const ROUTES: [Route; 6] = [
    Route {
        method: "GET",
        pattern: "/v1/healthz",
        summary: "liveness plus store provenance",
    },
    Route {
        method: "GET",
        pattern: "/v1/stats",
        summary: "the shared §4.1 overview and attacker-class totals",
    },
    Route {
        method: "GET",
        pattern: "/v1/outlets",
        summary: "per-outlet aggregate table",
    },
    Route {
        method: "GET",
        pattern: "/v1/account/{id}/timeline",
        summary: "one account's event timeline",
    },
    Route {
        method: "GET",
        pattern: "/v1/account/{id}/accesses",
        summary: "one account's full access records",
    },
    Route {
        method: "GET",
        pattern: "/v1/range/{prefix}",
        summary: "k-anonymity credential-hash range query",
    },
];

/// Token-bucket rate-limit configuration (whole-server, not per
/// client: the daemon fronts one dataset, and the limit exists to
/// keep ingest-sized hardware responsive, not to meter tenants).
#[derive(Clone, Copy, Debug)]
pub struct RateLimit {
    /// Sustained requests per second the bucket refills at.
    pub per_sec: f64,
    /// Bucket capacity: how large a burst is absorbed before 429s.
    pub burst: f64,
}

impl RateLimit {
    /// A limit of `n` requests per second with a one-second burst.
    pub fn per_second(n: u32) -> RateLimit {
        RateLimit {
            per_sec: f64::from(n.max(1)),
            burst: f64::from(n.max(1)),
        }
    }
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Shared token bucket. `try_take` either spends one token or reports
/// how many whole seconds until one is available (the `Retry-After`
/// value).
struct Limiter {
    cfg: RateLimit,
    bucket: Mutex<Bucket>,
}

impl Limiter {
    fn new(cfg: RateLimit) -> Limiter {
        Limiter {
            cfg,
            bucket: Mutex::new(Bucket {
                tokens: cfg.burst,
                last: Instant::now(),
            }),
        }
    }

    fn try_take(&self) -> Result<(), u64> {
        let mut b = self
            .bucket
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let now = Instant::now();
        let refill = now.duration_since(b.last).as_secs_f64() * self.cfg.per_sec;
        b.tokens = (b.tokens + refill).min(self.cfg.burst);
        b.last = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            Ok(())
        } else {
            let wait = (1.0 - b.tokens) / self.cfg.per_sec;
            Err((wait.ceil() as u64).max(1))
        }
    }
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads; also the bound on concurrent connections.
    pub threads: usize,
    /// Optional whole-server token-bucket rate limit.
    pub rate: Option<RateLimit>,
    /// Sink for per-endpoint request counters and latency histograms;
    /// pass [`TelemetrySink::disabled`] to serve without instrumentation.
    pub telemetry: TelemetrySink,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 8,
            rate: None,
            telemetry: TelemetrySink::disabled(),
        }
    }
}

/// A running daemon: an acceptor thread plus [`ServeOptions::threads`]
/// workers. Dropping without [`Server::shutdown`] detaches the
/// threads; call `shutdown` for a graceful, joined exit.
///
/// ```
/// use pwnd_monitor::dataset::Dataset;
/// use pwnd_serve::http::{ServeOptions, Server};
/// use pwnd_serve::index::{QueryIndex, StoreMeta};
/// use std::sync::Arc;
///
/// let index = Arc::new(QueryIndex::from_dataset(&Dataset::default(), StoreMeta::default()));
/// let server = Server::bind("127.0.0.1:0", index, ServeOptions::default())?;
/// assert!(server.addr().port() != 0); // ephemeral port resolved
/// server.shutdown();
/// # std::io::Result::Ok(())
/// ```
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:8080"`, port `0` for ephemeral)
    /// and start accepting. Returns once the socket is listening — the
    /// daemon is immediately queryable on [`Server::addr`].
    pub fn bind(addr: &str, index: Arc<QueryIndex>, opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let limiter = opts.rate.map(|cfg| Arc::new(Limiter::new(cfg)));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));

        let mut handles = Vec::with_capacity(opts.threads + 1);
        for _ in 0..opts.threads.max(1) {
            let rx = Arc::clone(&rx);
            let index = Arc::clone(&index);
            let stop = Arc::clone(&shutdown);
            let limiter = limiter.clone();
            let sink = opts.telemetry.clone();
            handles.push(std::thread::spawn(move || loop {
                let next = {
                    let rx = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    rx.recv_timeout(Duration::from_millis(100))
                };
                match next {
                    Ok(stream) => {
                        // Connection errors are the peer's problem;
                        // the worker moves on to the next one.
                        let _ = serve_connection(stream, &index, &stop, limiter.as_deref(), &sink);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
            }));
        }

        let stop = Arc::clone(&shutdown);
        handles.push(std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::Relaxed) {
                    return; // drops tx; workers drain and exit
                }
                if let Ok(s) = stream {
                    if tx.send(s).is_err() {
                        return;
                    }
                }
            }
        }));

        Ok(Server {
            addr: local,
            shutdown,
            handles,
        })
    }

    /// The bound address (the resolved port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let in-flight requests
    /// finish, join every thread.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Wake the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Longest request line, `\n` included; a longer one gets `414`.
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most header bytes per request, blank line included; more get `431`.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// How long a connection has, from accept or from its last response, to
/// send a whole request head; also how long a refused connection's
/// input is discarded at most.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// An error answered with the JSON envelope (see [`error_body`]): HTTP
/// status, envelope `status` code, message. The parser's refusals
/// (`400`, `408`, `413`, `414`, `431`) also close the connection.
type ApiError = (u16, &'static str, &'static str);
const BAD_REQUEST: ApiError = (400, "bad_request", "malformed request line");
const INVALID_ACCOUNT: ApiError = (400, "invalid_account", "account id must be a decimal u32");
const INVALID_PREFIX: ApiError = (
    400,
    "invalid_prefix",
    "range prefix must be 5 uppercase hex characters",
);
const NOT_FOUND: ApiError = (404, "not_found", "no such endpoint; see API.md");
const UNKNOWN_ACCOUNT: ApiError = (404, "unknown_account", "no such account in this store");
const METHOD_NOT_ALLOWED: ApiError = (405, "method_not_allowed", "only GET is supported");
const REQUEST_TIMEOUT: ApiError = (408, "request_timeout", "request head not sent within 2 s");
const CONTENT_TOO_LARGE: ApiError = (413, "content_too_large", "the API takes no request body");
const URI_TOO_LONG: ApiError = (414, "uri_too_long", "request line over 8 KiB");
const RATE_LIMITED: ApiError = (429, "rate_limited", "rate limit exceeded; slow down");
const HEADERS_TOO_LARGE: ApiError = (431, "headers_too_large", "request headers over 16 KiB");

/// What [`parse_request`] makes of the bytes a connection has sent.
#[derive(Debug, PartialEq, Eq)]
enum Parsed<'a> {
    /// No whole request head yet, and the bytes are within the caps.
    NeedMore,
    /// A whole request head.
    Request(Request<'a>),
    /// A request refused with an error envelope and a close.
    Reject(ApiError),
}

/// A whole request head, the first `consumed` bytes of the buffer.
#[derive(Debug, PartialEq, Eq)]
struct Request<'a> {
    method: &'a str,
    path: &'a str,
    keep_alive: bool,
    consumed: usize,
}

/// Frame the first request in `buf`. Pure and monotone: once a prefix of
/// a byte stream gives a `Request` or a `Reject`, every longer prefix
/// gives the same, so where reads split the stream never matters. Past
/// the caps it never asks for more, so a connection holds at most
/// `MAX_REQUEST_LINE + MAX_HEADER_BYTES` bytes plus one read. The API is
/// GET-only, so any request body is refused rather than framed.
fn parse_request(buf: &[u8]) -> Parsed<'_> {
    let line_end = match line_len(buf, MAX_REQUEST_LINE, URI_TOO_LONG) {
        Ok(len) => len,
        Err(parsed) => return parsed,
    };
    let line = std::str::from_utf8(&buf[..line_end]).unwrap_or_default();
    let mut parts = line.split_ascii_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Parsed::Reject(BAD_REQUEST);
    };
    let (mut at, mut keep_alive) = (line_end, true);
    loop {
        let room = line_end + MAX_HEADER_BYTES - at;
        let len = match line_len(&buf[at..], room, HEADERS_TOO_LARGE) {
            Ok(len) => len,
            Err(parsed) => return parsed,
        };
        let header = buf[at..at + len].trim_ascii();
        at += len;
        if header.is_empty() {
            return Parsed::Request(Request {
                method,
                path,
                keep_alive,
                consumed: at,
            });
        }
        // Field names are case-insensitive (RFC 9110 §5.1).
        let (name, value) = header.split_at(header.iter().position(|&b| b == b':').unwrap_or(0));
        let value = value.get(1..).unwrap_or_default().trim_ascii();
        if name.eq_ignore_ascii_case(b"connection") {
            keep_alive = !value.eq_ignore_ascii_case(b"close");
        } else if name.eq_ignore_ascii_case(b"transfer-encoding")
            || name.eq_ignore_ascii_case(b"content-length") && value != b"0"
        {
            return Parsed::Reject(CONTENT_TOO_LARGE);
        }
    }
}

/// The length of the first line of `bytes`, `\n` included, if it ends
/// within `cap` bytes; else `NeedMore` while it still may, or `refusal`.
fn line_len(bytes: &[u8], cap: usize, refusal: ApiError) -> Result<usize, Parsed<'static>> {
    match bytes.iter().take(cap).position(|&b| b == b'\n') {
        Some(i) => Ok(i + 1),
        None if bytes.len() < cap => Err(Parsed::NeedMore),
        None => Err(Parsed::Reject(refusal)),
    }
}

/// Serve one connection until the peer closes, misses
/// [`REQUEST_DEADLINE`], an error occurs, or shutdown is requested. Bytes
/// are read into one buffer that [`parse_request`] frames; requests
/// already in it are answered in order without another read. Read
/// timeouts keep the loop responsive to the deadline and to shutdown
/// without busy-waiting.
fn serve_connection(
    mut stream: TcpStream,
    index: &QueryIndex,
    stop: &AtomicBool,
    limiter: Option<&Limiter>,
    sink: &TelemetrySink,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    stream.set_nodelay(true)?;
    let (mut buf, mut chunk) = (Vec::new(), [0; 4096]);
    let mut deadline = Instant::now() + REQUEST_DEADLINE;
    loop {
        let request = match parse_request(&buf) {
            Parsed::Request(request) => request,
            Parsed::Reject(refusal) => return refuse(stream, refusal, sink),
            Parsed::NeedMore if stop.load(Ordering::Relaxed) => return Ok(()),
            Parsed::NeedMore if Instant::now() < deadline => {
                match stream.read(&mut chunk) {
                    Ok(0) => return Ok(()),
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(e) => return Err(e),
                }
                continue;
            }
            // Past the deadline: close a silent connection, refuse a begun request.
            Parsed::NeedMore if buf.is_empty() => return Ok(()),
            Parsed::NeedMore => return refuse(stream, REQUEST_TIMEOUT, sink),
        };

        let started = Instant::now();
        let mut extra = Vec::new();
        let (status, label, body) = if request.method != "GET" {
            extra.push(("Allow", "GET".to_string()));
            error(METHOD_NOT_ALLOWED, "method_not_allowed")
        } else if let Some(retry) = limiter.map(Limiter::try_take).and_then(Result::err) {
            extra.push(("Retry-After", retry.to_string()));
            error(RATE_LIMITED, "rate_limited")
        } else {
            route(index, request.path)
        };

        sink.count_labeled("serve.requests", label);
        sink.count_labeled("serve.responses", status_text(status).1);
        sink.observe_labeled(
            "serve.latency_us",
            label,
            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        );

        write_response(&mut stream, status, &body, &extra, request.keep_alive)?;
        if !request.keep_alive || stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        buf.drain(..request.consumed);
        deadline = Instant::now() + REQUEST_DEADLINE;
    }
}

/// Answer a refused request with its error envelope and close. Closing
/// with unread input resets the connection, which can destroy the reply
/// before the peer reads it: so stop writing, then discard up to 4 MiB
/// for at most [`REQUEST_DEADLINE`], until the peer closes or pauses past
/// the read timeout.
fn refuse(mut stream: TcpStream, refusal: ApiError, sink: &TelemetrySink) -> io::Result<()> {
    sink.count_labeled("serve.responses", status_text(refusal.0).1);
    write_response(&mut stream, refusal.0, &error_body(refusal), &[], false)?;
    stream.shutdown(Shutdown::Write)?;
    let (until, mut scratch) = (Instant::now() + REQUEST_DEADLINE, [0; 4096]);
    let mut rest = stream.take(4 << 20);
    while Instant::now() < until && rest.read(&mut scratch).is_ok_and(|n| n > 0) {}
    Ok(())
}

/// Dispatch a GET path: `(status, telemetry label, body)`. The label
/// is the matched route pattern, so per-endpoint series aggregate
/// across concrete ids.
fn route(index: &QueryIndex, path: &str) -> (u16, &'static str, String) {
    // Query strings carry no meaning in /v1; ignore them.
    let path = path.split('?').next().unwrap_or(path);
    let segs: Vec<&str> = path.trim_matches('/').split('/').collect();
    match segs.as_slice() {
        ["v1", "healthz"] => (200, "/v1/healthz", index.healthz_json()),
        ["v1", "stats"] => (200, "/v1/stats", index.stats_json()),
        ["v1", "outlets"] => (200, "/v1/outlets", index.outlets_json()),
        ["v1", "account", id, tail @ ("timeline" | "accesses")] => {
            let pattern = if *tail == "timeline" {
                "/v1/account/{id}/timeline"
            } else {
                "/v1/account/{id}/accesses"
            };
            let body = match id.parse::<u32>() {
                Err(_) => return error(INVALID_ACCOUNT, pattern),
                Ok(id) if *tail == "timeline" => index.timeline_json(id),
                Ok(id) => index.accesses_json(id),
            };
            body.map_or_else(|| error(UNKNOWN_ACCOUNT, pattern), |b| (200, pattern, b))
        }
        ["v1", "range", prefix] => {
            let valid = prefix.len() == RANGE_PREFIX_LEN
                && prefix
                    .chars()
                    .all(|c| c.is_ascii_digit() || c.is_ascii_uppercase() && c.is_ascii_hexdigit());
            if valid {
                (200, "/v1/range/{prefix}", index.range_json(prefix))
            } else {
                error(INVALID_PREFIX, "/v1/range/{prefix}")
            }
        }
        _ => error(NOT_FOUND, "unmatched"),
    }
}

/// `e` as a routed response: `(status, telemetry label, body)`.
fn error(e: ApiError, label: &'static str) -> (u16, &'static str, String) {
    (e.0, label, error_body(e))
}

/// The JSON error envelope every non-2xx response carries.
fn error_body((code, status, message): ApiError) -> String {
    let mut text = Json::Obj(vec![(
        "error".to_string(),
        Json::Obj(vec![
            ("code".to_string(), Json::U(u64::from(code))),
            ("status".to_string(), Json::Str(status.to_string())),
            ("message".to_string(), Json::Str(message.to_string())),
        ]),
    )])
    .pretty();
    text.push('\n');
    text
}

/// The reason phrase and the `serve.responses` counter label of `status`.
fn status_text(status: u16) -> (&'static str, &'static str) {
    match status {
        200 => ("OK", "200"),
        400 => ("Bad Request", "400"),
        404 => ("Not Found", "404"),
        405 => ("Method Not Allowed", "405"),
        408 => ("Request Timeout", "408"),
        413 => ("Content Too Large", "413"),
        414 => ("URI Too Long", "414"),
        429 => ("Too Many Requests", "429"),
        431 => ("Request Header Fields Too Large", "431"),
        _ => ("Internal Server Error", "5xx"),
    }
}

fn write_response(
    out: &mut TcpStream,
    status: u16,
    body: &str,
    extra: &[(&str, String)],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        status_text(status).0,
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    out.write_all(head.as_bytes())?;
    out.write_all(body.as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use pwnd_monitor::dataset::Dataset;

    fn empty_index() -> QueryIndex {
        QueryIndex::from_dataset(&Dataset::default(), crate::index::StoreMeta::default())
    }

    #[test]
    fn router_answers_every_registered_pattern() {
        let idx = empty_index();
        for r in ROUTES {
            // Substitute syntactically valid operands for placeholders.
            let concrete = r.pattern.replace("{id}", "0").replace("{prefix}", "00000");
            let (status, label, _) = route(&idx, &concrete);
            assert_eq!(label, r.pattern, "pattern must label its own traffic");
            // Account 0 doesn't exist in an empty index; everything
            // else must answer 200.
            assert!(
                status == 200 || (status == 404 && r.pattern.contains("{id}")),
                "{} -> {status}",
                r.pattern
            );
        }
    }

    #[test]
    fn invalid_operands_get_400_envelopes() {
        let idx = empty_index();
        let (s, _, body) = route(&idx, "/v1/account/notanumber/timeline");
        assert_eq!(s, 400);
        assert!(body.contains("\"invalid_account\""));
        let (s, _, body) = route(&idx, "/v1/range/zz");
        assert_eq!(s, 400);
        assert!(body.contains("\"invalid_prefix\""));
        // Lowercase hex is rejected: the API is uppercase like HIBP.
        let (s, _, _) = route(&idx, "/v1/range/abcde");
        assert_eq!(s, 400);
    }

    #[test]
    fn unknown_paths_are_unmatched_404s() {
        let idx = empty_index();
        let (s, label, body) = route(&idx, "/v2/healthz");
        assert_eq!((s, label), (404, "unmatched"));
        assert!(body.contains("\"not_found\""));
    }

    #[test]
    fn limiter_hands_out_burst_then_backpressure() {
        let l = Limiter::new(RateLimit::per_second(2));
        assert!(l.try_take().is_ok());
        assert!(l.try_take().is_ok());
        let retry = l.try_take().unwrap_err();
        assert!(retry >= 1);
    }

    /// Feed `stream` to the parser as a connection does, one read per
    /// piece between the `cuts`: every outcome until the connection would
    /// close, each checked for the parser's invariants.
    fn drive(stream: &[u8], cuts: &[usize]) -> Result<Vec<String>, TestCaseError> {
        let mut ends: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        ends.push(stream.len());
        ends.sort_unstable();
        let (mut buf, mut fed, mut seen) = (Vec::new(), 0, Vec::new());
        for end in ends {
            buf.extend_from_slice(&stream[fed..end]);
            fed = end;
            loop {
                let parsed = parse_request(&buf);
                match &parsed {
                    Parsed::NeedMore => {
                        // Within the caps: a request line that can still end
                        // within 8 KiB, and headers within 16 KiB after it.
                        let line_end = buf.iter().position(|&b| b == b'\n');
                        let line_end = line_end.map_or(buf.len() + 1, |i| i + 1);
                        prop_assert!(line_end <= MAX_REQUEST_LINE, "{} bytes", buf.len());
                        prop_assert!(
                            buf.len() < line_end + MAX_HEADER_BYTES,
                            "{} bytes",
                            buf.len()
                        );
                        break;
                    }
                    Parsed::Request(r) => prop_assert!(r.consumed > 0 && r.consumed <= buf.len()),
                    Parsed::Reject(e) => {
                        let body = Json::parse(&error_body(*e)).expect("the envelope is JSON");
                        let error = body.get("error").expect("an error object");
                        prop_assert_eq!(error.get("code").and_then(Json::as_u64), Some(e.0.into()));
                        prop_assert_eq!(error.get("status").and_then(Json::as_str), Some(e.1));
                        prop_assert!(status_text(e.0).1 != "5xx", "{e:?} has no status row");
                    }
                }
                seen.push(format!("{parsed:?}"));
                let consumed = match parsed {
                    Parsed::Request(r) if r.keep_alive => r.consumed,
                    _ => return Ok(seen),
                };
                buf.drain(..consumed);
            }
        }
        Ok(seen)
    }

    /// Read boundaries: anywhere, and often just around the caps.
    fn cuts() -> impl Strategy<Value = Vec<usize>> {
        let line = MAX_REQUEST_LINE - 8..MAX_REQUEST_LINE + 8;
        let head = MAX_HEADER_BYTES..MAX_HEADER_BYTES + 256;
        vec(prop_oneof![any::<usize>(), line, head], 0..20)
    }

    /// Byte streams of HTTP-like tokens and arbitrary bytes, sometimes
    /// with a run long enough to cross a cap.
    fn noise() -> impl Strategy<Value = Vec<u8>> {
        let token = prop_oneof![
            any::<u8>().prop_map(|b| vec![b]),
            any::<u8>().prop_map(|b| vec![b]),
            Just(b"GET /v1/healthz HTTP/1.1".to_vec()),
            Just(b"POST / ".to_vec()),
            Just(b"\r\n".to_vec()),
            Just(b"\n".to_vec()),
            Just(b" ".to_vec()),
            Just(b"Connection: close".to_vec()),
            Just(b"Content-Length: 0".to_vec()),
            Just(b"Content-Length: 3".to_vec()),
            Just(b"Transfer-Encoding: chunked".to_vec()),
            (0usize..30_000).prop_map(|n| vec![b'a'; n]),
        ];
        vec(token, 0..40).prop_map(|tokens| tokens.concat())
    }

    /// Well-formed pipelined requests, with header names in random case,
    /// and the outcomes the parser owes them.
    fn pipeline() -> impl Strategy<Value = (Vec<u8>, Vec<String>)> {
        let header = (0usize..6, any::<u64>());
        let request = (0usize..3, 0usize..3, vec(header, 0..5));
        vec(request, 1..6).prop_map(|requests| {
            let (mut stream, mut expected) = (Vec::new(), Vec::new());
            for (method, path, headers) in requests {
                let (method, path) = (
                    ["GET", "POST", "HEAD"][method],
                    ["/", "/v1/healthz", "/x?y"][path],
                );
                let mut head = format!("{method} {path} HTTP/1.1\r\n");
                let (mut keep_alive, mut refused) = (true, false);
                for (kind, case) in headers {
                    let (name, value) = [
                        ("Host", "t"),
                        ("Connection", "close"),
                        ("Connection", "keep-alive"),
                        ("Content-Length", "0"),
                        ("Content-Length", "5"),
                        ("Transfer-Encoding", "chunked"),
                    ][kind];
                    keep_alive = if kind == 1 {
                        false
                    } else {
                        keep_alive || kind == 2
                    };
                    refused |= kind >= 4;
                    let line = format!("{name}: {value}\r\n");
                    head.extend(line.chars().enumerate().map(|(i, c)| {
                        match case >> (i % 64) & 1 {
                            0 => c.to_ascii_lowercase(),
                            _ => c.to_ascii_uppercase(),
                        }
                    }));
                }
                head.push_str("\r\n");
                stream.extend_from_slice(head.as_bytes());
                if refused {
                    expected.push(format!("{:?}", Parsed::Reject(CONTENT_TOO_LARGE)));
                    break;
                }
                let consumed = head.len();
                let request = Request {
                    method,
                    path,
                    keep_alive,
                    consumed,
                };
                expected.push(format!("{:?}", Parsed::Request(request)));
                if !keep_alive {
                    break;
                }
            }
            (stream, expected)
        })
    }

    proptest! {
        /// Arbitrary streams: no panic, `consumed` within the buffer, no
        /// `NeedMore` past the caps, every reject a JSON envelope with
        /// its own code, and the same outcomes wherever reads split it.
        #[test]
        fn parse_request_is_bounded_and_blind_to_read_boundaries(
            stream in noise(),
            cuts in cuts(),
        ) {
            prop_assert_eq!(drive(&stream, &cuts)?, drive(&stream, &[])?);
        }

        /// Well-formed pipelines give one outcome per request, in order,
        /// stopping at the first close or refusal, however reads split them.
        #[test]
        fn pipelined_requests_parse_in_order_across_any_cuts(
            (stream, expected) in pipeline(),
            cuts in cuts(),
        ) {
            prop_assert_eq!(drive(&stream, &cuts)?, expected);
        }
    }
}
