//! A minimal blocking HTTP client for the service — what the `blazer
//! client` subcommand, the fleet router's backend connections, the CI
//! smoke test, and the end-to-end tests use instead of curl.
//!
//! Two modes:
//!
//! - The free functions ([`health`], [`stats`], [`analyze`],
//!   [`analyze_batch`]) each send one `Connection: close` request through
//!   [`blazer_http::one_shot`] — the simplest thing that works for a
//!   single request.
//! - [`Session`] holds one keep-alive connection and sends any number of
//!   requests over it, paying the TCP handshake once. Responses are framed
//!   by `Content-Length` (a keep-alive peer can't read to EOF), so a
//!   session can also be used to *pipeline*: writes and reads are separate
//!   calls on the same socket. A session whose connection was closed **at
//!   a request boundary** — the server announced `Connection: close`
//!   (request cap), or it restarted between requests — transparently
//!   re-dials once and resends; only a second consecutive failure, or a
//!   failure after response bytes have been consumed, surfaces an error.
//!
//! The wire-format primitives themselves ([`read_response`], the request
//! formatter, the dialer and the one-shot request) live in the shared
//! [`blazer_http`] crate.

use crate::api::AnalyzeRequest;
pub use blazer_http::read_response;
use blazer_http::{connect, format_request};
use blazer_ir::json::Json;
use std::io::{BufReader, Write};
use std::net::TcpStream;

fn bad_data(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Whether a request failure may be answered by re-dialing: the peer went
/// away at a connection boundary (announced close, restart, idle-timeout
/// close) before any response byte arrived, so resending the identical
/// request on a fresh connection cannot duplicate an observed response.
fn retriable(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind;
    matches!(
        kind,
        ErrorKind::ConnectionAborted
            | ErrorKind::ConnectionReset
            | ErrorKind::BrokenPipe
            | ErrorKind::UnexpectedEof
            | ErrorKind::NotConnected
    )
}

/// One keep-alive connection to the service. Every request reuses the
/// same socket; when the server closes the connection at a request
/// boundary (its `--max-requests-per-connection` cap, a restart), the
/// next request transparently reconnects once instead of failing on the
/// dead socket.
pub struct Session {
    reader: Option<BufReader<TcpStream>>,
    addr: String,
    server_closed: bool,
}

impl Session {
    /// Connects one persistent session to `addr`.
    pub fn connect(addr: &str) -> std::io::Result<Session> {
        Ok(Session::from_stream(connect(addr, None)?, addr))
    }

    /// Wraps an already-connected stream (one dialed with a connect
    /// timeout, say) as a session to `addr`; any later transparent re-dial
    /// uses an unbounded connect.
    pub fn from_stream(stream: TcpStream, addr: &str) -> Session {
        Session {
            reader: Some(BufReader::new(stream)),
            addr: addr.to_string(),
            server_closed: false,
        }
    }

    /// Whether the server announced `Connection: close` on the last
    /// response (the next request will re-dial instead of reusing the
    /// connection).
    pub fn server_closed(&self) -> bool {
        self.server_closed
    }

    /// Re-dials the session's address, replacing any previous connection.
    fn redial(&mut self) -> std::io::Result<()> {
        self.reader = Some(BufReader::new(connect(&self.addr, None)?));
        self.server_closed = false;
        Ok(())
    }

    /// One write-request/read-response exchange on the current connection.
    fn exchange(&mut self, head: &str) -> std::io::Result<(u16, String, bool)> {
        let reader = self.reader.as_mut().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "no connection")
        })?;
        // Writes go through the BufReader's inner stream; they don't
        // disturb buffered (pipelined) response bytes.
        reader.get_mut().write_all(head.as_bytes())?;
        reader.get_mut().flush()?;
        read_response(reader)
    }

    /// Sends one request and reads its framed response on the session's
    /// persistent connection, transparently reconnecting once when the
    /// previous connection ended at a request boundary.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        let head = format_request(method, path, &self.addr, body.unwrap_or(""), false);
        // An announced close means the old socket is certainly dead:
        // re-dial proactively and treat the fresh connection as the one
        // attempt (a failure now is a real connectivity error).
        let announced = self.server_closed || self.reader.is_none();
        if announced {
            self.redial()?;
        }
        let (status, body, closes) = match self.exchange(&head) {
            Ok(r) => r,
            Err(e) if !announced && retriable(e.kind()) => {
                // The server hung up unannounced at a request boundary
                // (restart, idle-timeout). One silent retry on a fresh
                // connection; a second failure propagates.
                self.redial()?;
                self.exchange(&head)?
            }
            Err(e) => {
                // The connection state is unknown; drop it so the next
                // request starts from a clean dial.
                self.reader = None;
                return Err(e);
            }
        };
        self.server_closed = closes;
        Ok((status, body))
    }

    /// [`Session::request`] with a parsed JSON response.
    pub fn json_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, Json)> {
        let (status, body) = self.request(method, path, body)?;
        let doc =
            Json::parse(&body).map_err(|e| bad_data(format!("{e} in response: {body:.120}")))?;
        Ok((status, doc))
    }

    /// `POST /analyze` with one typed request.
    pub fn analyze(&mut self, req: &AnalyzeRequest) -> std::io::Result<(u16, Json)> {
        self.json_request("POST", "/analyze", Some(&req.to_json().to_string()))
    }

    /// `POST /analyze` with a batch: one array in, one array out, results
    /// in submission order with per-item `status` fields.
    pub fn analyze_batch(&mut self, reqs: &[AnalyzeRequest]) -> std::io::Result<(u16, Json)> {
        let body = Json::arr(reqs.iter().map(AnalyzeRequest::to_json)).to_string();
        self.json_request("POST", "/analyze", Some(&body))
    }

    /// `GET /health` on the session's connection.
    pub fn health(&mut self) -> std::io::Result<(u16, Json)> {
        self.json_request("GET", "/health", None)
    }

    /// `GET /stats` on the session's connection.
    pub fn stats(&mut self) -> std::io::Result<(u16, Json)> {
        self.json_request("GET", "/stats", None)
    }
}

/// One `Connection: close` request with a parsed JSON response. No
/// client-side deadline races a long-running analysis: the server's own
/// per-request budget is the timeout mechanism.
fn json_request(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, Json)> {
    let (status, body) = blazer_http::one_shot(addr, method, path, body, None)?;
    let doc = Json::parse(&body).map_err(|e| bad_data(format!("{e} in response: {body:.120}")))?;
    Ok((status, doc))
}

/// `GET /health`.
pub fn health(addr: &str) -> std::io::Result<(u16, Json)> {
    json_request(addr, "GET", "/health", "")
}

/// `GET /stats`.
pub fn stats(addr: &str) -> std::io::Result<(u16, Json)> {
    json_request(addr, "GET", "/stats", "")
}

/// `POST /analyze` with a typed request.
pub fn analyze(addr: &str, req: &AnalyzeRequest) -> std::io::Result<(u16, Json)> {
    json_request(addr, "POST", "/analyze", &req.to_json().to_string())
}

/// `POST /analyze` with a batch of typed requests on a one-shot
/// connection (see [`Session::analyze_batch`] for the keep-alive way).
pub fn analyze_batch(addr: &str, reqs: &[AnalyzeRequest]) -> std::io::Result<(u16, Json)> {
    let body = Json::arr(reqs.iter().map(AnalyzeRequest::to_json)).to_string();
    json_request(addr, "POST", "/analyze", &body)
}
