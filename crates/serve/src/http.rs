//! The HTTP/1.1 front end: router, worker-thread pool, rate limiting.
//!
//! Dependency-free by design — a std [`TcpListener`], an acceptor
//! thread, and a bounded pool of worker threads pulling accepted
//! connections off an `mpsc` queue. Workers speak just enough
//! HTTP/1.1 for the API: `GET` requests, keep-alive connections,
//! `Content-Length`-framed JSON responses. One worker owns one
//! connection until the peer closes it, leaves it idle for 2 s between
//! requests, or the server shuts down, so the pool size bounds
//! concurrent connections; size [`ServeOptions::threads`] to the
//! expected client count.
//!
//! Request handling is deliberately boring: parse the request line,
//! consult the token bucket, dispatch on the route table
//! ([`ROUTES`]), let the [`QueryIndex`] render the body. Every error
//! path returns the JSON error envelope documented in `API.md`
//! (`{"error": {"code", "status", "message"}}`). Per-request
//! telemetry — `serve.requests{route}`, `serve.responses{status}`,
//! and the `serve.latency_us{route}` histograms — goes through the
//! same [`TelemetrySink`] the simulation uses, and is reported by the
//! CLI when the daemon exits.

use crate::index::{QueryIndex, RANGE_PREFIX_LEN};
use pwnd_telemetry::json::Json;
use pwnd_telemetry::TelemetrySink;
use std::io::{self, BufRead, BufReader, Read, Write};
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

/// Longest request line read, `\n` included; a longer one gets `414`.
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most header bytes read per request, blank line included; more get `431`.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// How long after accept or its last response a connection may hold its
/// worker before the first byte of a request line; a begun request is
/// not timed, so slow senders keep their connection.
const IDLE_DEADLINE: Duration = Duration::from_secs(2);

/// Serve one connection until the peer closes, stays idle past
/// [`IDLE_DEADLINE`], an error occurs, or shutdown is requested. Read
/// timeouts keep the keep-alive loop responsive to both without
/// busy-waiting.
fn serve_connection(
    stream: TcpStream,
    index: &QueryIndex,
    stop: &AtomicBool,
    limiter: Option<&Limiter>,
    sink: &TelemetrySink,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut request = Vec::new();
    let mut line = Vec::new();
    loop {
        request.clear();
        let until = Some(Instant::now() + IDLE_DEADLINE);
        if !read_full_line(&mut reader, &mut request, MAX_REQUEST_LINE, until, stop)? {
            return Ok(());
        }
        if !request.ends_with(b"\n") {
            let refusal = (414, "uri_too_long", "request line over 8 KiB");
            return refuse(reader, out, refusal, sink);
        }
        // Drain headers; we only need Connection.
        let mut keep_alive = true;
        let mut header_bytes = 0;
        loop {
            line.clear();
            let room = MAX_HEADER_BYTES - header_bytes;
            if !read_full_line(&mut reader, &mut line, room, None, stop)? {
                return Ok(());
            }
            if !line.ends_with(b"\n") {
                let refusal = (431, "headers_too_large", "request headers over 16 KiB");
                return refuse(reader, out, refusal, sink);
            }
            header_bytes += line.len();
            let h = line.trim_ascii();
            if h.is_empty() {
                break;
            }
            // Field names are case-insensitive (RFC 9110 §5.1).
            if let Some((name, v)) = h.split_first_chunk::<11>() {
                if name.eq_ignore_ascii_case(b"connection:") {
                    keep_alive = !v.trim_ascii().eq_ignore_ascii_case(b"close");
                }
            }
        }

        let started = Instant::now();
        let request_line = String::from_utf8_lossy(&request);
        let mut parts = request_line.split_whitespace();
        let (method, path) = match (parts.next(), parts.next()) {
            (Some(m), Some(p)) => (m, p),
            _ => {
                let body = error_body(400, "bad_request", "malformed request line");
                write_response(&mut out, 400, "Bad Request", &body, &[], false)?;
                return Ok(());
            }
        };

        let (status, label, body, extra): (u16, &str, String, Vec<(&str, String)>) =
            if method != "GET" {
                (
                    405,
                    "method_not_allowed",
                    error_body(405, "method_not_allowed", "only GET is supported"),
                    vec![("Allow", "GET".to_string())],
                )
            } else if let Some(retry) = limiter.map(Limiter::try_take).and_then(Result::err) {
                (
                    429,
                    "rate_limited",
                    error_body(429, "rate_limited", "rate limit exceeded; slow down"),
                    vec![("Retry-After", retry.to_string())],
                )
            } else {
                let (status, label, body) = route(index, path);
                (status, label, body, Vec::new())
            };

        sink.count_labeled("serve.requests", label);
        sink.count_labeled("serve.responses", status_label(status));
        sink.observe_labeled(
            "serve.latency_us",
            label,
            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        );

        write_response(&mut out, status, reason(status), &body, &extra, keep_alive)?;
        if !keep_alive || stop.load(Ordering::Relaxed) {
            return Ok(());
        }
    }
}

/// Read one `\n`-terminated line into `line`, retrying across read
/// timeouts: `read_until` keeps the bytes it already appended, so a line
/// split by a pause still assembles whole. `Ok(true)` once the line is
/// whole or `limit` bytes long (then it has no `\n`), `Ok(false)` when
/// the peer closed, the server is stopping, or `idle_until` passed with
/// `line` still empty.
fn read_full_line(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    limit: usize,
    idle_until: Option<Instant>,
    stop: &AtomicBool,
) -> io::Result<bool> {
    loop {
        let room = (limit - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', line) {
            Ok(_) if line.ends_with(b"\n") || line.len() >= limit => return Ok(true),
            Ok(0) => return Ok(false),
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                let idle = line.is_empty() && idle_until.is_some_and(|t| Instant::now() >= t);
                if idle || stop.load(Ordering::Relaxed) {
                    return Ok(false);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Refuse a request too large to read with an error envelope and close.
/// Closing with unread input resets the connection, which can destroy
/// the reply before the peer reads it: so stop writing, then discard up
/// to 4 MiB until the peer closes or pauses past the read timeout.
fn refuse(
    reader: impl Read,
    mut out: TcpStream,
    (status, label, message): (u16, &str, &str),
    sink: &TelemetrySink,
) -> io::Result<()> {
    sink.count_labeled("serve.responses", status_label(status));
    let body = error_body(status, label, message);
    write_response(&mut out, status, reason(status), &body, &[], false)?;
    out.shutdown(Shutdown::Write)?;
    let _ = io::copy(&mut reader.take(4 << 20), &mut io::sink());
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
            match id.parse::<u32>() {
                Err(_) => (
                    400,
                    pattern,
                    error_body(400, "invalid_account", "account id must be a decimal u32"),
                ),
                Ok(id) => {
                    let body = if *tail == "timeline" {
                        index.timeline_json(id)
                    } else {
                        index.accesses_json(id)
                    };
                    match body {
                        Some(body) => (200, pattern, body),
                        None => (
                            404,
                            pattern,
                            error_body(404, "unknown_account", "no such account in this store"),
                        ),
                    }
                }
            }
        }
        ["v1", "range", prefix] => {
            let valid = prefix.len() == RANGE_PREFIX_LEN
                && prefix
                    .chars()
                    .all(|c| c.is_ascii_digit() || c.is_ascii_uppercase() && c.is_ascii_hexdigit());
            if valid {
                (200, "/v1/range/{prefix}", index.range_json(prefix))
            } else {
                (
                    400,
                    "/v1/range/{prefix}",
                    error_body(
                        400,
                        "invalid_prefix",
                        "range prefix must be 5 uppercase hex characters",
                    ),
                )
            }
        }
        _ => (
            404,
            "unmatched",
            error_body(404, "not_found", "no such endpoint; see API.md"),
        ),
    }
}

/// The JSON error envelope every non-2xx response carries.
fn error_body(code: u16, status: &str, message: &str) -> String {
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

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    }
}

/// Stable status label for the `serve.responses` counter.
fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        405 => "405",
        414 => "414",
        429 => "429",
        431 => "431",
        _ => "5xx",
    }
}

fn write_response(
    out: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
    extra: &[(&str, String)],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
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
}
