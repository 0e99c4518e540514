//! A std-only TCP scrape endpoint: live `/metrics`, `/healthz`,
//! `/trace/recent`, `/timeseries`, `/alerts`, `/profile` and `/hot`
//! while a runtime is up.
//!
//! The growable bodies (`/trace/recent` spans, `/profile` lock sites)
//! accept a `?limit=N` query parameter and default to
//! [`DEFAULT_SCRAPE_LIMIT`] so a full flight recorder can never
//! produce an unbounded response.
//!
//! The server is deliberately minimal — a single accept thread, one
//! request per connection (`Connection: close`), and just enough
//! HTTP/1.1 to satisfy Prometheus scrapers and `curl`. Bodies are
//! rendered per request from the shared [`Registry`], caller-provided
//! closures, and the [`FlightRecorder`], so the endpoint is pure
//! read-side: it never touches the data path.
//!
//! Malformed input gets an answer, not a hang-up: the request-line
//! read is bounded (an oversized line is answered `400` without
//! buffering the rest), garbage and non-GET requests are answered
//! `400` with a JSON body, and every response carries `Content-Type`,
//! `Content-Length` and `Connection: close` so clients never have to
//! guess framing.
//!
//! ```
//! use std::sync::Arc;
//! use bad_telemetry::{FlightRecorder, Registry, ScrapeServer};
//!
//! let registry = Registry::new();
//! registry.counter("bad_up").inc();
//! let recorder = Arc::new(FlightRecorder::new(1, 16));
//! let server = ScrapeServer::bind(
//!     "127.0.0.1:0",
//!     registry.clone(),
//!     recorder,
//!     Arc::new(|| "{\"ok\":true}".to_owned()),
//! )
//! .unwrap();
//! let addr = server.local_addr();
//! // curl http://{addr}/metrics  |  /healthz  |  /trace/recent
//! server.shutdown();
//! # let _ = addr;
//! ```

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::registry::Registry;
use crate::trace::FlightRecorder;

/// Renders the `/healthz` JSON body; the runtime injects per-shard
/// occupancy here without `bad-telemetry` depending on the cache tier.
pub type HealthFn = Arc<dyn Fn() -> String + Send + Sync>;

/// Renders an optional JSON endpoint body (`/timeseries`, `/alerts`,
/// `/hot`).
pub type EndpointFn = Arc<dyn Fn() -> String + Send + Sync>;

/// Renders a JSON endpoint body under an optional `?limit=N` cap
/// (`None` = no query parameter; the closure applies its own default).
pub type LimitFn = Arc<dyn Fn(Option<usize>) -> String + Send + Sync>;

/// Default `?limit=` for the endpoints whose bodies grow with runtime
/// state (`/trace/recent` spans, `/profile` lock sites): a full flight
/// recorder holds `stripes × capacity` spans, which is unbounded from
/// the scraper's point of view.
pub const DEFAULT_SCRAPE_LIMIT: usize = 512;

/// The closure set behind the server's routes. Only `health` is
/// mandatory; absent optional endpoints answer `200` with an
/// explanatory `{"error": …}` body so probes can distinguish
/// "disabled" from "no such route" (a `404`).
#[derive(Clone)]
pub struct ScrapeEndpoints {
    /// `/healthz`.
    pub health: HealthFn,
    /// `/timeseries` (windowed registry history), if enabled.
    pub timeseries: Option<EndpointFn>,
    /// `/alerts` (burn-rate/drift alert states), if enabled.
    pub alerts: Option<EndpointFn>,
    /// `/profile` (hot-path profiler: folded-stack stage tree + lock
    /// contention), if enabled. Receives the parsed `?limit=` cap.
    pub profile: Option<LimitFn>,
    /// `/hot` (sketch-based heavy-hitter attribution), if enabled.
    pub hot: Option<EndpointFn>,
}

impl ScrapeEndpoints {
    /// Endpoints with only the mandatory health closure set.
    pub fn health_only(health: HealthFn) -> Self {
        Self {
            health,
            timeseries: None,
            alerts: None,
            profile: None,
            hot: None,
        }
    }
}

/// The scrape endpoint handle. Dropping it stops the accept thread.
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ScrapeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScrapeServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ScrapeServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept thread. The server lives until [`shutdown`](Self::shutdown)
    /// or drop.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Registry,
        recorder: Arc<FlightRecorder>,
        health: HealthFn,
    ) -> io::Result<Self> {
        Self::bind_with_endpoints(
            addr,
            registry,
            recorder,
            ScrapeEndpoints::health_only(health),
        )
    }

    /// The full route set: `/metrics` and `/trace/recent` always, plus
    /// whichever of [`ScrapeEndpoints`] is wired.
    pub fn bind_with_endpoints(
        addr: impl ToSocketAddrs,
        registry: Registry,
        recorder: Arc<FlightRecorder>,
        endpoints: ScrapeEndpoints,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("bad-scrape".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if thread_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Serve inline: scrapes are rare and tiny, and one
                    // thread keeps the endpoint's footprint fixed.
                    let _ = serve_one(stream, &registry, &recorder, &endpoints);
                }
            })?;
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // The accept loop is blocked in `incoming()`; poke it awake
        // with a throwaway connection so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Serves an optional endpoint: the closure's body when wired, a `200`
/// with an explanatory error body when not.
fn optional(endpoint: Option<&EndpointFn>, disabled: &str) -> String {
    match endpoint {
        Some(render) => render(),
        None => format!(r#"{{"error":{}}}"#, crate::json::quote(disabled)),
    }
}

/// Reads one request, routes it, writes one response.
fn serve_one(
    mut stream: TcpStream,
    registry: &Registry,
    recorder: &Arc<FlightRecorder>,
    endpoints: &ScrapeEndpoints,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let (status, content_type, body) = match read_request_line(&mut stream)? {
        RequestLine::Get(path) => {
            // `/route?limit=N` — the only query parameter the server
            // understands; anything else in the query is ignored.
            let (route, query) = match path.split_once('?') {
                Some((route, query)) => (route, Some(query)),
                None => (path.as_str(), None),
            };
            let limit = query.and_then(parse_limit);
            match route {
                "/metrics" => ("200 OK", "text/plain; version=0.0.4", registry.render()),
                "/healthz" => ("200 OK", "application/json", (endpoints.health)()),
                "/trace/recent" => (
                    "200 OK",
                    "application/json",
                    recorder.to_json_limit(limit.unwrap_or(DEFAULT_SCRAPE_LIMIT)),
                ),
                "/timeseries" => (
                    "200 OK",
                    "application/json",
                    optional(endpoints.timeseries.as_ref(), "health engine disabled"),
                ),
                "/alerts" => (
                    "200 OK",
                    "application/json",
                    optional(endpoints.alerts.as_ref(), "health engine disabled"),
                ),
                "/profile" => (
                    "200 OK",
                    "application/json",
                    match endpoints.profile.as_ref() {
                        Some(render) => render(limit),
                        None => r#"{"error":"profiler disabled"}"#.to_owned(),
                    },
                ),
                "/hot" => (
                    "200 OK",
                    "application/json",
                    optional(endpoints.hot.as_ref(), "sketches disabled"),
                ),
                other => (
                    "404 Not Found",
                    "application/json",
                    format!(
                        r#"{{"error":"not found","path":{}}}"#,
                        crate::json::quote(other)
                    ),
                ),
            }
        }
        RequestLine::TooLong => (
            "400 Bad Request",
            "application/json",
            r#"{"error":"request line too long"}"#.to_owned(),
        ),
        RequestLine::Malformed => (
            "400 Bad Request",
            "application/json",
            r#"{"error":"bad request"}"#.to_owned(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()?;
    // Drain whatever the client is still sending before closing. A
    // close with unread bytes in the receive queue turns into a TCP
    // RST, which can destroy the response before the client reads it.
    // Bounded by the read timeout set above plus a byte cap, so a
    // hostile client cannot hold the connection open.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 1024];
    let mut drained = 0usize;
    while drained < 64 * 1024 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
    Ok(())
}

/// Extracts `limit=N` from a query string (`a=1&limit=5` → `Some(5)`);
/// unparseable or absent values fall back to the route's default.
fn parse_limit(query: &str) -> Option<usize> {
    query
        .split('&')
        .find_map(|pair| pair.strip_prefix("limit="))
        .and_then(|value| value.parse().ok())
}

/// Outcome of parsing the request line. Every variant gets a response;
/// connections are only dropped on hard I/O errors.
enum RequestLine {
    /// A well-formed `GET <path> …` line.
    Get(String),
    /// The line overflowed the fixed buffer before a newline arrived.
    TooLong,
    /// Anything else: garbage bytes, empty input, a non-GET method.
    Malformed,
}

/// Maximum request-line bytes buffered before answering `400`. Scrape
/// requests are a few hundred bytes; anything larger is hostile or
/// broken.
const MAX_REQUEST_LINE: usize = 2048;

/// Parses the request target out of `GET <path> HTTP/1.1`, reading at
/// most [`MAX_REQUEST_LINE`] bytes.
fn read_request_line(stream: &mut TcpStream) -> io::Result<RequestLine> {
    let mut buf = [0u8; MAX_REQUEST_LINE];
    let mut len = 0;
    loop {
        if len == buf.len() {
            return Ok(RequestLine::TooLong);
        }
        let n = match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                break;
            }
            Err(e) => return Err(e),
        };
        len += n;
        if buf[..len].contains(&b'\n') {
            break;
        }
    }
    let text = String::from_utf8_lossy(&buf[..len]);
    let line = text.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Ok(RequestLine::Get(path.to_owned())),
        _ => Ok(RequestLine::Malformed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        raw(addr, &format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n"))
    }

    /// Sends raw bytes and splits the response into head and body.
    fn raw(addr: SocketAddr, request: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_owned(), body.to_owned())
    }

    /// Asserts the framing headers every response must carry, and that
    /// `Content-Length` matches the actual body.
    fn assert_framing(head: &str, body: &str, content_type: &str) {
        assert!(
            head.contains(&format!("Content-Type: {content_type}")),
            "missing content type in {head}"
        );
        assert!(
            head.contains(&format!("Content-Length: {}", body.len())),
            "content length mismatch: head={head} body_len={}",
            body.len()
        );
        assert!(head.contains("Connection: close"));
    }

    /// A 64-byte object's `cache_insert` span.
    fn inserted(t_us: u64, cache: u64, object: u64) -> crate::trace::Span {
        use crate::trace::{Span, SpanKind, TraceId};
        let trace = TraceId::for_object(object);
        Span {
            t_us,
            bytes: 64,
            lag_us: 1,
            detail: 64,
            ..Span::new(trace, SpanKind::CacheInsert, cache, object, 0)
        }
    }

    fn test_server() -> (ScrapeServer, Registry, Arc<FlightRecorder>) {
        let registry = Registry::new();
        let recorder = Arc::new(FlightRecorder::new(2, 32));
        let server = ScrapeServer::bind(
            "127.0.0.1:0",
            registry.clone(),
            Arc::clone(&recorder),
            Arc::new(|| r#"{"shards":2}"#.to_owned()),
        )
        .unwrap();
        (server, registry, recorder)
    }

    #[test]
    fn serves_metrics_health_and_recent_traces() {
        let (server, registry, recorder) = test_server();
        registry.counter("bad_scrape_test_total").add(7);
        recorder.record(&inserted(5, 2, 1));
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_framing(&head, &body, "text/plain; version=0.0.4");
        assert!(body.contains("bad_scrape_test_total 7"));

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_framing(&head, &body, "application/json");
        assert_eq!(body, r#"{"shards":2}"#);

        let (head, body) = get(addr, "/trace/recent");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_framing(&head, &body, "application/json");
        assert!(body.starts_with(r#"[{"kind":"cache_insert","t_us":5"#));

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.shutdown();
    }

    #[test]
    fn unknown_paths_get_a_json_404_body() {
        let (server, _registry, _recorder) = test_server();
        let (head, body) = get(server.local_addr(), "/no/such/endpoint");
        assert!(head.starts_with("HTTP/1.1 404"));
        assert_framing(&head, &body, "application/json");
        assert_eq!(body, r#"{"error":"not found","path":"/no/such/endpoint"}"#);
        server.shutdown();
    }

    #[test]
    fn timeseries_and_alerts_routes_serve_injected_bodies() {
        let registry = Registry::new();
        let recorder = Arc::new(FlightRecorder::new(1, 16));
        let server = ScrapeServer::bind_with_endpoints(
            "127.0.0.1:0",
            registry.clone(),
            Arc::clone(&recorder),
            ScrapeEndpoints {
                health: Arc::new(|| "{}".to_owned()),
                timeseries: Some(Arc::new(|| r#"{"windows":3}"#.to_owned())),
                alerts: Some(Arc::new(|| r#"{"firing":1}"#.to_owned())),
                profile: None,
                hot: None,
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let (head, body) = get(addr, "/timeseries");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_framing(&head, &body, "application/json");
        assert_eq!(body, r#"{"windows":3}"#);
        let (head, body) = get(addr, "/alerts");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_framing(&head, &body, "application/json");
        assert_eq!(body, r#"{"firing":1}"#);
        server.shutdown();

        // Without closures the routes answer with an explanation.
        let (server, _registry, _recorder) = test_server();
        let (_, body) = get(server.local_addr(), "/timeseries");
        assert_eq!(body, r#"{"error":"health engine disabled"}"#);
        let (_, body) = get(server.local_addr(), "/alerts");
        assert_eq!(body, r#"{"error":"health engine disabled"}"#);
        server.shutdown();
    }

    #[test]
    fn profile_route_serves_injected_body_and_defaults_to_disabled() {
        let registry = Registry::new();
        let recorder = Arc::new(FlightRecorder::new(1, 16));
        let server = ScrapeServer::bind_with_endpoints(
            "127.0.0.1:0",
            registry.clone(),
            Arc::clone(&recorder),
            ScrapeEndpoints {
                profile: Some(Arc::new(|limit| {
                    format!(
                        r#"{{"enabled":true,"limit":{},"folded":["insert;victim_scan 12"]}}"#,
                        limit.map_or(-1i64, |l| l as i64)
                    )
                })),
                ..ScrapeEndpoints::health_only(Arc::new(|| "{}".to_owned()))
            },
        )
        .unwrap();
        let (head, body) = get(server.local_addr(), "/profile");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_framing(&head, &body, "application/json");
        assert!(body.contains("insert;victim_scan 12"));
        // No query → the closure sees None.
        assert!(body.contains(r#""limit":-1"#), "{body}");
        // ?limit=3 → the closure sees the parsed cap.
        let (_, body) = get(server.local_addr(), "/profile?limit=3");
        assert!(body.contains(r#""limit":3"#), "{body}");
        server.shutdown();

        // Without a closure the route explains itself.
        let (server, _registry, _recorder) = test_server();
        let (_, body) = get(server.local_addr(), "/profile");
        assert_eq!(body, r#"{"error":"profiler disabled"}"#);
        server.shutdown();
    }

    #[test]
    fn hot_route_serves_injected_body_and_defaults_to_disabled() {
        let registry = Registry::new();
        let recorder = Arc::new(FlightRecorder::new(1, 16));
        let server = ScrapeServer::bind_with_endpoints(
            "127.0.0.1:0",
            registry.clone(),
            Arc::clone(&recorder),
            ScrapeEndpoints {
                hot: Some(Arc::new(|| {
                    r#"{"top":{"requests":[{"key":7,"count":42,"err":0}]}}"#.to_owned()
                })),
                ..ScrapeEndpoints::health_only(Arc::new(|| "{}".to_owned()))
            },
        )
        .unwrap();
        let (head, body) = get(server.local_addr(), "/hot");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_framing(&head, &body, "application/json");
        assert!(body.contains(r#""key":7,"count":42"#));
        server.shutdown();

        // Without a closure the route explains itself.
        let (server, _registry, _recorder) = test_server();
        let (_, body) = get(server.local_addr(), "/hot");
        assert_eq!(body, r#"{"error":"sketches disabled"}"#);
        server.shutdown();
    }

    #[test]
    fn trace_recent_is_capped_by_the_limit_parameter() {
        let (server, _registry, recorder) = test_server();
        for object in 0..8u64 {
            recorder.record(&inserted(object, 1, object));
        }
        let addr = server.local_addr();
        // Unlimited (default cap ≫ 8): all spans come back.
        let (_, body) = get(addr, "/trace/recent");
        assert_eq!(body.matches(r#""kind":"cache_insert""#).count(), 8);
        // ?limit=3: the three most recent only.
        let (head, body) = get(addr, "/trace/recent?limit=3");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_framing(&head, &body, "application/json");
        assert_eq!(body.matches(r#""kind":"cache_insert""#).count(), 3);
        assert!(
            body.contains(r#""t_us":7"#),
            "most recent span kept: {body}"
        );
        assert!(!body.contains(r#""t_us":0"#), "oldest span dropped: {body}");
        // Garbage limits fall back to the default.
        let (_, body) = get(addr, "/trace/recent?limit=banana");
        assert_eq!(body.matches(r#""kind":"cache_insert""#).count(), 8);
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_a_400_not_a_hangup() {
        let (server, _registry, _recorder) = test_server();
        let addr = server.local_addr();

        // Garbage bytes: still a response, still framed.
        let (head, body) = raw(addr, "\u{1}\u{2}garbage\r\n\r\n");
        assert!(head.starts_with("HTTP/1.1 400"));
        assert_framing(&head, &body, "application/json");
        assert_eq!(body, r#"{"error":"bad request"}"#);

        // Non-GET method.
        let (head, body) = raw(addr, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(head.starts_with("HTTP/1.1 400"));
        assert_eq!(body, r#"{"error":"bad request"}"#);

        // Empty request (client closes immediately).
        let (head, _) = raw(addr, "");
        assert!(head.starts_with("HTTP/1.1 400"));

        server.shutdown();
    }

    #[test]
    fn oversized_request_lines_are_bounded_and_answered() {
        let (server, _registry, _recorder) = test_server();
        // 4 KiB of path with no newline: the server must answer 400
        // after MAX_REQUEST_LINE bytes instead of buffering forever or
        // dropping the connection.
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(4096));
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // The server may answer (and close) before the client finishes
        // writing; ignore the resulting EPIPE and read what came back.
        let _ = stream.write_all(long.as_bytes());
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 400"));
        assert_framing(head, body, "application/json");
        assert_eq!(body, r#"{"error":"request line too long"}"#);
        server.shutdown();
    }

    #[test]
    fn healthz_survives_a_byte_by_byte_slow_client() {
        let (server, _registry, _recorder) = test_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Dribble the request line one byte at a time; `read_request_line`
        // must keep reading until it sees the newline.
        for byte in b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n" {
            stream.write_all(std::slice::from_ref(byte)).unwrap();
            stream.flush().unwrap();
        }
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body, r#"{"shards":2}"#);
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_the_accept_thread() {
        let (server, _registry, _recorder) = test_server();
        let addr = server.local_addr();
        server.shutdown();
        // No listener remains, so a fresh connection is refused.
        let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        assert!(refused.is_err());
    }
}
