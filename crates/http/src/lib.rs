//! A deliberately small HTTP/1.1 subset over `std::net` streams, and the
//! one serving loop built on it, shared by the analysis service
//! (`blazer-serve`) and the fleet router (`blazer-route`).
//!
//! Bodies are delimited by `Content-Length` only (no chunked transfer,
//! no TLS), and connections are **persistent by default**: an HTTP/1.1
//! peer may send any number of requests — back to back, even pipelined —
//! on one socket, and the server answers them in order on the same
//! socket until either side says `Connection: close`, the per-connection
//! request cap is reached, or the peer goes idle past [`IO_TIMEOUT`].
//! That subset is what `curl`, the `blazer client` subcommand, and any
//! load balancer health check need — and nothing more, because the
//! workspace is std-only.
//!
//! Server-side reading is built on one long-lived `BufRead` per
//! connection (see [`read_request`]): pipelined bytes that arrive
//! buffered past a request boundary stay in the reader and become the
//! next request instead of being dropped with a transient `BufReader`.
//!
//! [`Server`] is how a connection is accepted, queued, served and
//! drained, for any [`Service`] (a route table plus its counters): an
//! accept loop feeds a bounded queue, a full queue is answered `503` at
//! once instead of piling up work, and a fixed pool of workers each serve
//! one keep-alive connection at a time. Every error response carries the
//! same [`error_body`].
//!
//! The client side of the same wire format lives here too
//! ([`format_request`], [`read_response`], [`connect`], [`one_shot`]), so
//! the service's client, the router's backend connections and health
//! probes, and the tests all frame requests and responses identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use blazer_ir::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection socket read/write timeout: a stalled or malicious peer
/// must never pin a worker forever. Between requests the same timeout
/// doubles as the keep-alive idle cap — a connection with no next request
/// within it is closed.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Maximum bytes of request head (request line plus headers, terminators
/// included) read per request. A peer streaming an endless header line
/// is answered `431` after this many bytes instead of growing a worker's
/// line buffer without bound until the socket timeout.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum number of header lines per request (`431` beyond).
pub const MAX_HEADERS: usize = 100;

/// Default cap on requests served per connection before the server closes
/// it (resource hygiene: a connection can't pin a worker forever).
pub const DEFAULT_MAX_REQUESTS_PER_CONNECTION: u64 = 1000;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The request target, query string included.
    pub path: String,
    /// Body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the peer asked for the connection to be closed after this
    /// response: an explicit `Connection: close`, or an HTTP/1.0 request
    /// without `Connection: keep-alive`.
    pub close: bool,
}

/// A request-reading failure that should be answered with the given HTTP
/// status, after which the connection must be closed (the stream position
/// is undefined once framing has failed).
#[derive(Debug)]
pub struct HttpError {
    /// Status code to answer with.
    pub status: u16,
    /// Human-readable reason for the JSON error body.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError { status, message: message.into() }
    }
}

/// Why [`read_request`] produced no request.
#[derive(Debug)]
pub enum ReadError {
    /// The peer hung up (or went idle past the timeout) cleanly *between*
    /// requests: close the connection without writing anything.
    Closed,
    /// A malformed, oversized, or truncated request: answer with the
    /// error's status, then close.
    Bad(HttpError),
}

impl From<HttpError> for ReadError {
    fn from(e: HttpError) -> ReadError {
        ReadError::Bad(e)
    }
}

/// Reads one CRLF-terminated head line, charging its bytes against the
/// remaining head budget. `at_boundary` is true while zero bytes of the
/// current request have been consumed — EOF or an idle timeout there is a
/// clean [`ReadError::Closed`], anywhere else a `400`/`408`.
fn read_head_line<R: BufRead>(
    reader: &mut R,
    budget: &mut usize,
    at_boundary: bool,
) -> Result<String, ReadError> {
    let mut line = String::new();
    // `take` bounds how much one line may consume: when the limit is hit
    // without a newline the line is over budget (431), and nothing past
    // the limit has been pulled out of the reader.
    let limit = *budget as u64;
    let n = Read::take(&mut *reader, limit).read_line(&mut line).map_err(|e| {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::TimedOut | ErrorKind::WouldBlock => {
                if at_boundary && line.is_empty() {
                    ReadError::Closed
                } else {
                    ReadError::Bad(HttpError::new(408, "timed out reading request head"))
                }
            }
            _ if at_boundary && line.is_empty() => ReadError::Closed,
            _ => ReadError::Bad(HttpError::new(400, format!("could not read request head: {e}"))),
        }
    })?;
    *budget -= n;
    if n == 0 && at_boundary {
        return Err(ReadError::Closed);
    }
    if !line.ends_with('\n') {
        if n as u64 == limit {
            return Err(HttpError::new(
                431,
                format!("request head exceeds the {MAX_HEAD_BYTES}-byte limit"),
            )
            .into());
        }
        return Err(HttpError::new(400, "connection closed mid-request head").into());
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Reads and parses one request from a connection's persistent reader,
/// enforcing `max_body` bytes on the declared `Content-Length` plus the
/// [`MAX_HEAD_BYTES`]/[`MAX_HEADERS`] head bounds.
///
/// The reader must live as long as the connection: pipelined bytes
/// buffered past this request's end are the start of the next one.
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, ReadError> {
    let mut head_budget = MAX_HEAD_BYTES;
    let line = read_head_line(reader, &mut head_budget, true)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(HttpError::new(400, "malformed request line").into());
    }
    // HTTP/1.1 connections persist unless told otherwise; HTTP/1.0 (and
    // version-less) peers don't understand keep-alive unless they ask.
    let http11 = parts.next().is_none_or(|v| v.eq_ignore_ascii_case("HTTP/1.1"));
    let mut close = !http11;
    let mut content_length: Option<usize> = None;
    let mut headers = 0usize;
    loop {
        let header = read_head_line(reader, &mut head_budget, false)?;
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(HttpError::new(431, format!("more than {MAX_HEADERS} headers")).into());
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                // A negative or u64-overflowing length fails the `usize`
                // parse (400) rather than wrapping into a small allocation;
                // the 413 below then runs *before* the body buffer is
                // allocated, so a hostile length never reserves memory.
                let parsed: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::new(400, "unparsable Content-Length"))?;
                if content_length.replace(parsed).is_some_and(|prev| prev != parsed) {
                    // RFC 9110 §8.6: conflicting lengths are a smuggling
                    // vector; refuse rather than guess which one delimits.
                    return Err(HttpError::new(400, "conflicting Content-Length headers").into());
                }
            } else if name.eq_ignore_ascii_case("connection") {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        close = true;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        close = false;
                    }
                }
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::new(
            413,
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit"),
        )
        .into());
    }
    let mut body = vec![0u8; content_length];
    std::io::Read::read_exact(reader, &mut body).map_err(|e| {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::TimedOut | ErrorKind::WouldBlock => {
                HttpError::new(408, "timed out reading request body")
            }
            _ => HttpError::new(400, format!("body shorter than Content-Length: {e}")),
        }
    })?;
    Ok(Request { method, path, body, close })
}

/// The standard reason phrase for the status codes this service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one JSON response, announcing `Connection: keep-alive` or
/// `Connection: close` per `close`. Write errors are ignored: the peer may
/// have hung up, and the server has nothing better to do than move on.
pub fn write_json_response<W: Write>(writer: &mut W, status: u16, body: &str, close: bool) {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    let _ = writer.write_all(head.as_bytes()).and_then(|()| writer.write_all(body.as_bytes()));
    let _ = writer.flush();
}

// ------------------------------------------------------------ server side

/// The `{"ok": false, "error": ...}` body of every error response.
pub fn error_body(error: impl Into<String>) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::Str(error.into()))])
}

/// The counters [`Server`] keeps for its service (monotonic except the two
/// gauges, [`ServingStats::queue_len`] and [`ServingStats::workers_busy`]).
#[derive(Debug, Default)]
pub struct ServingStats {
    /// TCP connections handled by a worker (each may carry many requests).
    pub connections: AtomicU64,
    /// HTTP requests served, across all connections and routes.
    pub requests: AtomicU64,
    /// Requests answered with a `4xx` status.
    pub client_errors: AtomicU64,
    /// Connections rejected `503` by the full job queue.
    pub busy_rejections: AtomicU64,
    /// Gauge: connections accepted but not yet picked up by a worker.
    /// Saturation shows here (and in [`ServingStats::workers_busy`])
    /// before the queue fills and 503s start.
    pub queue_len: AtomicU64,
    /// Gauge: workers currently serving a connection.
    pub workers_busy: AtomicU64,
}

/// What a [`Server`] serves: a route table and the counters the loop
/// keeps. The server is generic over its service, so answering a request
/// costs no dynamic dispatch.
pub trait Service: Send + Sync + 'static {
    /// The error message of the `503` that a full job queue answers.
    const BUSY: &'static str;

    /// The counters the serving loop maintains.
    fn serving_stats(&self) -> &ServingStats;

    /// Answers one well-framed request with `(status, body, close)`; a
    /// `true` close ends the connection after this response even when the
    /// peer would keep it alive.
    fn respond(&self, request: &Request) -> (u16, String, bool);
}

/// How a [`Server`] sizes its pool and bounds each connection.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Worker threads, each serving one connection at a time.
    pub workers: usize,
    /// Bounded job-queue depth; a full queue answers `503`.
    pub queue_depth: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Requests served on one keep-alive connection before the server
    /// closes it (announced in the last response's `Connection: close`).
    pub max_requests_per_connection: u64,
}

/// A server's stop signal, shared with its service: the flag the accept
/// loop checks, and the bound address that wakes the loop out of its
/// blocking accept.
#[derive(Debug, Clone)]
pub struct Shutdown {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl Shutdown {
    /// Whether shutdown has begun (the server is draining).
    pub fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Begins an orderly shutdown: sets the flag and wakes the accept
    /// loop, which exits and drops the queue sender; the workers then
    /// serve what is queued and stop.
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server: one accept loop feeding a bounded queue that a fixed
/// pool of workers drains. Dropping the handle leaves the threads running;
/// call [`Server::stop`] for an orderly shutdown or [`Server::wait`] to
/// serve until the service triggers its [`Shutdown`].
pub struct Server<S> {
    service: Arc<S>,
    shutdown: Shutdown,
    /// The workers and the accept loop.
    threads: Vec<JoinHandle<()>>,
}

impl<S: Service> Server<S> {
    /// Binds `addr` (port `0` picks an ephemeral port), builds the service
    /// around the server's stop signal, spawns the worker pool and the
    /// accept loop, and returns immediately.
    pub fn start(
        addr: &str,
        limits: Limits,
        service: impl FnOnce(Shutdown) -> S,
    ) -> std::io::Result<Server<S>> {
        let listener = TcpListener::bind(addr)?;
        let shutdown =
            Shutdown { flag: Arc::new(AtomicBool::new(false)), addr: listener.local_addr()? };
        let service = Arc::new(service(shutdown.clone()));
        let limits = Limits {
            max_requests_per_connection: limits.max_requests_per_connection.max(1),
            ..limits
        };
        let (tx, rx) = sync_channel::<TcpStream>(limits.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut threads: Vec<JoinHandle<()>> = (0..limits.workers.max(1))
            .map(|_| {
                let (rx, service) = (Arc::clone(&rx), Arc::clone(&service));
                std::thread::spawn(move || worker_loop(&rx, &*service, limits))
            })
            .collect();
        threads.push({
            let (service, shutdown) = (Arc::clone(&service), shutdown.clone());
            std::thread::spawn(move || accept_loop(&listener, &tx, &shutdown, &*service))
        });
        Ok(Server { service, shutdown, threads })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.shutdown.addr
    }

    /// The service behind the loop (shared with every worker thread).
    pub fn service(&self) -> &Arc<S> {
        &self.service
    }

    /// Blocks until shutdown has begun and every queued connection has
    /// been served, then joins every thread.
    pub fn wait(&mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    /// Orderly shutdown: stop accepting, drain the queue, join every
    /// thread.
    pub fn stop(&mut self) {
        self.shutdown.trigger();
        self.wait();
    }
}

fn accept_loop<S: Service>(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    shutdown: &Shutdown,
    service: &S,
) {
    let stats = service.serving_stats();
    for stream in listener.incoming() {
        if shutdown.is_set() {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Responses are small; Nagle + the peer's delayed ACK would add
        // ~40ms per exchange.
        let _ = stream.set_nodelay(true);
        // The gauge goes up *before* the send so a worker's decrement
        // (strictly after a successful send) can never race it below zero.
        stats.queue_len.fetch_add(1, Ordering::SeqCst);
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) => {
                stats.queue_len.fetch_sub(1, Ordering::SeqCst);
                stats.busy_rejections.fetch_add(1, Ordering::SeqCst);
                let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                write_json_response(&mut &stream, 503, &error_body(S::BUSY).to_string(), true);
            }
            Err(TrySendError::Disconnected(_)) => {
                stats.queue_len.fetch_sub(1, Ordering::SeqCst);
                break;
            }
        }
    }
}

fn worker_loop<S: Service>(rx: &Mutex<Receiver<TcpStream>>, service: &S, limits: Limits) {
    let stats = service.serving_stats();
    loop {
        let received = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
        // A dropped queue sender means the shutdown drain is done.
        let Ok(stream) = received else { break };
        stats.queue_len.fetch_sub(1, Ordering::SeqCst);
        stats.workers_busy.fetch_add(1, Ordering::SeqCst);
        handle_connection(&stream, service, limits);
        stats.workers_busy.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves one connection to completion: a keep-alive request loop over a
/// single persistent `BufReader`, so pipelined bytes buffered past one
/// request's boundary become the next request instead of being dropped.
/// The loop ends when either side asks for `Connection: close`, the
/// request cap is reached, framing fails (the stream position is then
/// undefined), or the peer hangs up / idles out between requests.
fn handle_connection<S: Service>(stream: &TcpStream, service: &S, limits: Limits) {
    let stats = service.serving_stats();
    stats.connections.fetch_add(1, Ordering::SeqCst);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(stream);
    for served in 1..=limits.max_requests_per_connection {
        let request = match read_request(&mut reader, limits.max_body_bytes) {
            Ok(r) => r,
            Err(ReadError::Closed) => return,
            Err(ReadError::Bad(e)) => {
                stats.requests.fetch_add(1, Ordering::SeqCst);
                stats.client_errors.fetch_add(1, Ordering::SeqCst);
                let body = error_body(e.message).to_string();
                write_json_response(&mut { stream }, e.status, &body, true);
                return;
            }
        };
        stats.requests.fetch_add(1, Ordering::SeqCst);
        let (status, body, close) = service.respond(&request);
        let close = close || request.close || served == limits.max_requests_per_connection;
        if (400..500).contains(&status) {
            stats.client_errors.fetch_add(1, Ordering::SeqCst);
        }
        write_json_response(&mut { stream }, status, &body, close);
        if close {
            return;
        }
    }
}

// ------------------------------------------------------------ client side

fn bad_data(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Formats one request head + body. `close` picks the `Connection` token.
pub fn format_request(method: &str, path: &str, host: &str, body: &str, close: bool) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if close { "close" } else { "keep-alive" },
    )
}

/// Reads one `Content-Length`-framed response from a persistent reader.
/// Returns `(status, body, server_closes)` — the last flag reports the
/// server's `Connection: close`, after which no further response will
/// arrive on this connection.
///
/// A peer that hangs up *before sending any response byte* fails with
/// [`std::io::ErrorKind::ConnectionAborted`]: the request died at a
/// connection boundary (a keep-alive peer closed between requests, or a
/// backend was restarted), which a caller holding the request bytes may
/// safely retry on a fresh connection. Every other framing failure is
/// `InvalidData` and must not be retried blindly.
pub fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<(u16, String, bool)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            "connection closed before any response byte",
        ));
    }
    let status: u16 = line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad_data(format!("malformed status line: {line:.60}")))?;
    let mut content_length: Option<usize> = None;
    let mut closes = false;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad_data("connection closed mid-response-headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                closes = value.split(',').any(|t| t.trim().eq_ignore_ascii_case("close"));
            }
        }
    }
    let length =
        content_length.ok_or_else(|| bad_data("response without Content-Length framing"))?;
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad_data("response body is not UTF-8"))?;
    Ok((status, body, closes))
}

/// Dials `addr`, with `timeout` bounding the connect (a dead host then
/// costs one timeout, not the OS's multi-minute default). Nagle is off:
/// small request/response exchanges would otherwise wait ~40ms per round
/// trip on the peer's delayed ACK.
pub fn connect(addr: &str, timeout: Option<Duration>) -> std::io::Result<TcpStream> {
    let stream = match timeout {
        None => TcpStream::connect(addr)?,
        Some(timeout) => {
            let target = addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::AddrNotAvailable,
                    "address resolved to nothing",
                )
            })?;
            TcpStream::connect_timeout(&target, timeout)?
        }
    };
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Sends one `Connection: close` request on a fresh connection and reads
/// its framed response as `(status, body)`. With a `timeout` every phase
/// (connect, write, read) is bounded by it; without one the read waits as
/// long as the server takes, so no client-side deadline races a
/// long-running analysis. Errors name the phase that failed
/// (`connect: ...`, `write: ...`, `read: ...`).
pub fn one_shot(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: Option<Duration>,
) -> std::io::Result<(u16, String)> {
    fn phase(what: &'static str) -> impl Fn(std::io::Error) -> std::io::Error {
        move |e| std::io::Error::new(e.kind(), format!("{what}: {e}"))
    }
    let mut stream = connect(addr, timeout).map_err(phase("connect"))?;
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    stream
        .write_all(format_request(method, path, addr, body, true).as_bytes())
        .and_then(|()| stream.flush())
        .map_err(phase("write"))?;
    let (status, body, _closes) =
        read_response(&mut BufReader::new(stream)).map_err(phase("read"))?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse_one(raw: &[u8], max_body: usize) -> Result<Request, ReadError> {
        read_request(&mut Cursor::new(raw.to_vec()), max_body)
    }

    fn err_status(result: Result<Request, ReadError>) -> u16 {
        match result.unwrap_err() {
            ReadError::Bad(e) => e.status,
            ReadError::Closed => panic!("expected an HTTP error, got a clean close"),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse_one(b"POST /analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd", 1024)
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/analyze");
        assert_eq!(req.body, b"abcd");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_negotiation() {
        let close = parse_one(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n", 0).unwrap();
        assert!(close.close);
        let old = parse_one(b"GET /health HTTP/1.0\r\n\r\n", 0).unwrap();
        assert!(old.close, "HTTP/1.0 defaults to close");
        let old_ka =
            parse_one(b"GET /health HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", 0).unwrap();
        assert!(!old_ka.close, "an HTTP/1.0 peer may opt into keep-alive");
        let multi = parse_one(b"GET / HTTP/1.1\r\nConnection: foo, Close\r\n\r\n", 0).unwrap();
        assert!(multi.close, "close token found in a token list, any case");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back_from_one_reader() {
        let mut reader = Cursor::new(
            b"POST /analyze HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
              GET /health HTTP/1.1\r\n\r\n\
              GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n"
                .to_vec(),
        );
        let first = read_request(&mut reader, 1024).unwrap();
        assert_eq!((first.method.as_str(), first.path.as_str()), ("POST", "/analyze"));
        assert_eq!(first.body, b"hi");
        let second = read_request(&mut reader, 1024).unwrap();
        assert_eq!(second.path, "/health");
        assert!(!second.close);
        let third = read_request(&mut reader, 1024).unwrap();
        assert_eq!(third.path, "/stats");
        assert!(third.close);
        // A clean end-of-stream at a request boundary is a close, not an
        // error.
        assert!(matches!(read_request(&mut reader, 1024), Err(ReadError::Closed)));
    }

    #[test]
    fn rejects_oversized_and_truncated_bodies() {
        let over = err_status(parse_one(b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n", 10));
        assert_eq!(over, 413);
        let short = err_status(parse_one(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nab", 1024));
        assert_eq!(short, 400);
        let garbage = err_status(parse_one(b"\r\n", 1024));
        assert_eq!(garbage, 400);
    }

    #[test]
    fn accepts_zero_length_post() {
        let req = parse_one(b"POST /analyze HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert!(req.body.is_empty());
        // No Content-Length at all reads the same as an explicit zero.
        let req = parse_one(b"POST /analyze HTTP/1.1\r\nHost: x\r\n\r\n", 1024).unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_negative_and_overflowing_content_length() {
        // A negative length must be a parse failure (400), not a wrap into
        // a huge or zero allocation.
        let neg = err_status(parse_one(b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 1024));
        assert_eq!(neg, 400);
        // One past u64::MAX (and u64::MAX itself, which can't fit a body
        // limit anyway): the usize parse overflows → 400, and nothing is
        // allocated on either path.
        let wrap = err_status(parse_one(
            b"POST / HTTP/1.1\r\nContent-Length: 18446744073709551616\r\n\r\n",
            1024,
        ));
        assert_eq!(wrap, 400);
        // A huge-but-parsable length is bounced by the limit check (413)
        // before the body buffer is allocated.
        let huge = err_status(parse_one(
            b"POST / HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\n",
            1024,
        ));
        assert_eq!(huge, 413);
        let junk =
            err_status(parse_one(b"POST / HTTP/1.1\r\nContent-Length: 4x\r\n\r\nabcd", 1024));
        assert_eq!(junk, 400);
    }

    #[test]
    fn rejects_conflicting_content_lengths() {
        let smuggle = err_status(parse_one(
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nabcd",
            1024,
        ));
        assert_eq!(smuggle, 400);
        // Agreeing duplicates are harmless and accepted.
        let agree = parse_one(
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd",
            1024,
        )
        .unwrap();
        assert_eq!(agree.body, b"abcd");
    }

    #[test]
    fn caps_the_request_head() {
        // One endless header line: bounced at the head budget with 431,
        // never accumulated past MAX_HEAD_BYTES.
        let mut raw = b"GET /health HTTP/1.1\r\nX-Junk: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert_eq!(err_status(parse_one(&raw, 1024)), 431);
        // Likewise an endless *request line*.
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'x', MAX_HEAD_BYTES + 10));
        assert_eq!(err_status(parse_one(&raw, 1024)), 431);
        // Too many individually-small headers.
        let mut raw = b"GET /health HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            raw.extend(format!("X-{i}: v\r\n").into_bytes());
        }
        raw.extend(b"\r\n");
        assert_eq!(err_status(parse_one(&raw, 1024)), 431);
        // A head just under every bound still parses.
        let mut raw = b"GET /health HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS {
            raw.extend(format!("X-{i}: v\r\n").into_bytes());
        }
        raw.extend(b"\r\n");
        assert!(parse_one(&raw, 1024).is_ok());
    }

    #[test]
    fn eof_mid_head_is_an_error_not_a_clean_close() {
        assert_eq!(err_status(parse_one(b"GET /health HTTP/1.1\r\nHost", 1024)), 400);
        assert_eq!(err_status(parse_one(b"GET /health HT", 1024)), 400);
        assert!(matches!(parse_one(b"", 1024), Err(ReadError::Closed)));
    }

    #[test]
    fn response_roundtrips_through_format_and_read() {
        let mut wire = Vec::new();
        write_json_response(&mut wire, 200, "{\"ok\": true}", false);
        write_json_response(&mut wire, 503, "{\"ok\": false}", true);
        let mut reader = Cursor::new(wire);
        let (status, body, closes) = read_response(&mut reader).unwrap();
        assert_eq!((status, body.as_str(), closes), (200, "{\"ok\": true}", false));
        let (status, body, closes) = read_response(&mut reader).unwrap();
        assert_eq!((status, body.as_str(), closes), (503, "{\"ok\": false}", true));
    }

    #[test]
    fn one_shot_names_the_failed_phase() {
        // Bind-then-drop guarantees an unused port.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let err =
            one_shot(&addr, "GET", "/health", "", Some(Duration::from_millis(500))).unwrap_err();
        assert!(err.to_string().starts_with("connect:"), "{err}");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn response_eof_at_boundary_is_connection_aborted() {
        // Nothing at all: the boundary case a keep-alive caller may retry.
        let err = read_response(&mut Cursor::new(Vec::<u8>::new())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
        // A torn status line is NOT retry-safe: bytes were consumed.
        let err = read_response(&mut Cursor::new(b"HTTP/1.1 20".to_vec())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // EOF mid-headers is likewise data corruption, not a clean close.
        let err = read_response(&mut Cursor::new(b"HTTP/1.1 200 OK\r\nConn".to_vec())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
