//! Transport-independent request handling.
//!
//! [`HttpRequest`] and [`HttpResponse`] are the seam between "how bytes
//! arrive" and "what the response is": the epoll reactor hands its driver
//! the one and renders the other, and the [`Handler`] trait puts the same
//! pair behind [`serve_blocking`], the blocking server the scripted mock
//! backends in `doduo-balance`'s failover tests run on. Streaming (`POST
//! /v1/annotate_stream`) is the one endpoint outside this seam: it never
//! has a fully received request, so it is a state of the reactor's
//! connection machine ([`crate::reactor::StreamHooks`]) instead.
//!
//! Routes have one name each, the literal `/v1/...` path.

use crate::http::{self, Head};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One fully received request, decoupled from the socket it arrived on.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Uppercased request method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path as sent by the client (query string stripped).
    pub path: String,
    /// Raw query string (no leading `?`; empty when absent).
    pub query: String,
    /// Fully buffered request body.
    pub body: Vec<u8>,
    /// Whether the *client* asked to keep the connection open. Transports
    /// combine this with their own policy and the response's `close` flag.
    pub keep_alive: bool,
}

impl HttpRequest {
    /// Assembles a request from a parsed [`Head`] and its buffered body.
    pub fn from_head(head: &Head, body: Vec<u8>) -> HttpRequest {
        HttpRequest {
            method: head.method.clone(),
            path: head.path.clone(),
            query: head.query.clone(),
            body,
            keep_alive: head.keep_alive,
        }
    }
}

/// A normal rendered response: status + headers + complete body.
#[derive(Debug, Clone)]
pub struct Payload {
    /// HTTP status code; the reason phrase comes from
    /// [`http::reason_for`].
    pub status: u16,
    /// `content-type` header value.
    pub content_type: String,
    /// Extra pre-formatted header lines (each `name: value\r\n`).
    pub extra: String,
    /// Complete response body.
    pub body: String,
    /// Force `connection: close` and drop the connection afterwards,
    /// regardless of what the client asked for.
    pub close: bool,
}

/// What a [`Handler`] tells the transport to put on the wire.
#[derive(Debug, Clone)]
pub enum HttpResponse {
    /// A complete response; the common case.
    Payload(Payload),
    /// Write these bytes verbatim, then sever the connection — used by
    /// chaos injection (torn responses) and scripted test backends.
    RawThenClose(Vec<u8>),
    /// Sever the connection without writing a byte.
    Hangup,
}

impl HttpResponse {
    /// A `200`-style response with an explicit content type.
    pub fn text(status: u16, content_type: &str, body: impl Into<String>) -> HttpResponse {
        HttpResponse::Payload(Payload {
            status,
            content_type: content_type.to_string(),
            extra: String::new(),
            body: body.into(),
            close: false,
        })
    }

    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> HttpResponse {
        HttpResponse::text(status, "application/json", body)
    }

    /// The unified error envelope with the code derived from the status.
    pub fn error(status: u16, message: &str) -> HttpResponse {
        HttpResponse::error_code(status, http::code_for_status(status), message)
    }

    /// The unified error envelope with an explicit `code`.
    pub fn error_code(status: u16, code: &str, message: &str) -> HttpResponse {
        HttpResponse::json(status, http::error_envelope(code, message, None))
    }

    /// The standard `503` backpressure response: `Retry-After` header plus
    /// `retry_after_ms` in the envelope.
    pub fn unavailable(code: &str, message: &str, retry_after_secs: u64) -> HttpResponse {
        HttpResponse::Payload(Payload {
            status: 503,
            content_type: "application/json".into(),
            extra: format!("retry-after: {retry_after_secs}\r\n"),
            body: http::error_envelope(code, message, Some(retry_after_secs * 1000)),
            close: false,
        })
    }

    /// Marks the response connection-closing (a no-op for the variants
    /// that already sever).
    pub fn close(mut self) -> HttpResponse {
        if let HttpResponse::Payload(p) = &mut self {
            p.close = true;
        }
        self
    }

    /// Appends one extra response header (a no-op for the raw/severing
    /// variants, which carry no header section to extend).
    pub fn with_header(mut self, name: &str, value: &str) -> HttpResponse {
        if let HttpResponse::Payload(p) = &mut self {
            p.extra.push_str(&format!("{name}: {value}\r\n"));
        }
        self
    }
}

/// A request→response core for [`serve_blocking`] to drive.
pub trait Handler: Sync {
    /// Produces the response for one fully received request. Implementors
    /// may block but must never touch the client socket — the transport
    /// owns it.
    fn handle(&self, req: &HttpRequest) -> HttpResponse;
}

impl<F: Fn(&HttpRequest) -> HttpResponse + Sync> Handler for F {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        self(req)
    }
}

/// Renders `resp` into wire bytes. Returns `(bytes, keep_open)`:
/// `keep_open` is false when the response itself demands closing or the
/// client asked for `connection: close`.
pub fn render_http_response(resp: &HttpResponse, req_keep_alive: bool) -> (Vec<u8>, bool) {
    match resp {
        HttpResponse::Payload(p) => {
            let keep = req_keep_alive && !p.close;
            let bytes = http::render_response(
                p.status,
                http::reason_for(p.status),
                &p.content_type,
                &p.extra,
                &p.body,
                keep,
            );
            (bytes, keep)
        }
        HttpResponse::RawThenClose(bytes) => (bytes.clone(), false),
        HttpResponse::Hangup => (Vec::new(), false),
    }
}

/// Writes `resp` to a blocking stream. `Ok(true)` = connection may serve
/// another request.
pub fn write_http_response(
    stream: &mut impl Write,
    resp: &HttpResponse,
    req_keep_alive: bool,
) -> std::io::Result<bool> {
    let (bytes, keep) = render_http_response(resp, req_keep_alive);
    if !bytes.is_empty() {
        stream.write_all(&bytes)?;
        stream.flush()?;
    }
    Ok(keep)
}

/// A minimal blocking HTTP server over a [`Handler`]: nonblocking accept
/// loop, one thread per connection, full head+body parse per request.
/// This is the scripted-backend driver `doduo-balance`'s failover tests
/// use in place of hand-rolled mini-servers; the production daemon lives
/// in `server.rs`. Returns when `stop` flips true.
pub fn serve_blocking<H: Handler>(
    listener: TcpListener,
    handler: &H,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    std::thread::scope(|scope| {
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    scope.spawn(move || serve_blocking_conn(stream, handler, stop));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
    });
    Ok(())
}

/// One connection's request loop for [`serve_blocking`].
fn serve_blocking_conn<H: Handler>(stream: TcpStream, handler: &H, stop: &AtomicBool) {
    let mut stream = stream;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    while !stop.load(Ordering::SeqCst) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let head = match http::read_head(&mut reader, deadline) {
            Ok(h) => h,
            Err(http::ReadError::TimedOut) => continue, // idle keep-alive
            Err(e) => {
                let _ = http::write_read_error(&mut stream, &e);
                return;
            }
        };
        if head.expect_continue && http::write_continue(&mut stream).is_err() {
            return;
        }
        let body = match http::read_body(&mut reader, head.framing, deadline) {
            Ok(b) => b,
            Err(_) => return,
        };
        let req = HttpRequest::from_head(&head, body);
        let resp = handler.handle(&req);
        let severs = matches!(resp, HttpResponse::RawThenClose(_) | HttpResponse::Hangup);
        match write_http_response(&mut stream, &resp, req.keep_alive) {
            Ok(true) => {}
            Ok(false) => {
                if severs {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
                return;
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_respects_close_and_client_keep_alive() {
        let resp = HttpResponse::json(200, "{}\n");
        let (bytes, keep) = render_http_response(&resp, true);
        assert!(keep);
        assert!(String::from_utf8_lossy(&bytes).contains("connection: keep-alive"));
        let (bytes, keep) = render_http_response(&resp, false);
        assert!(!keep);
        assert!(String::from_utf8_lossy(&bytes).contains("connection: close"));
        let (_, keep) = render_http_response(&resp.clone().close(), true);
        assert!(!keep);
        let (bytes, keep) = render_http_response(&HttpResponse::Hangup, true);
        assert!(bytes.is_empty());
        assert!(!keep);
    }

    #[test]
    fn with_header_appends_to_the_header_section() {
        let resp = HttpResponse::json(200, "{}\n")
            .with_header("x-model-version", "3-deadbeef")
            .with_header("retry-after", "2");
        let (bytes, _) = render_http_response(&resp, true);
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.contains("x-model-version: 3-deadbeef"), "{text}");
        assert!(text.contains("retry-after: 2"), "{text}");
        // Raw variants have no header section; the call must be a no-op.
        let raw = HttpResponse::RawThenClose(b"x".to_vec()).with_header("a", "b");
        let (bytes, _) = render_http_response(&raw, true);
        assert_eq!(bytes, b"x");
    }

    #[test]
    fn error_constructors_emit_the_envelope() {
        let HttpResponse::Payload(p) = HttpResponse::error(404, "no route") else {
            panic!("payload expected")
        };
        assert_eq!(p.status, 404);
        assert!(p.body.contains("\"code\":\"not_found\""), "{}", p.body);
        assert!(p.body.contains("\"message\":\"no route\""), "{}", p.body);
        assert!(!p.body.contains("retry_after_ms"), "{}", p.body);

        let HttpResponse::Payload(p) = HttpResponse::unavailable("overloaded", "busy", 2) else {
            panic!("payload expected")
        };
        assert_eq!(p.status, 503);
        assert!(p.extra.contains("retry-after: 2"), "{}", p.extra);
        assert!(p.body.contains("\"retry_after_ms\":2000"), "{}", p.body);
    }

    #[test]
    fn serve_blocking_round_trips_requests_through_a_closure_handler() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let handler = |req: &HttpRequest| match req.path.as_str() {
                    "/v1/echo" => {
                        HttpResponse::json(200, format!("{{\"len\":{}}}\n", req.body.len()))
                    }
                    p => HttpResponse::error(404, &format!("no route for {} {p}", req.method)),
                };
                serve_blocking(listener, &handler, &stop).expect("serve");
            })
        };

        let mut client =
            crate::http::Client::connect(&addr, Some(Duration::from_secs(5))).expect("connect");
        let resp = client.request("POST", "/v1/echo", b"hello").expect("echo");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"len\":5}\n");
        let resp = client.request("GET", "/nope", b"").expect("miss");
        assert_eq!(resp.status, 404);
        let body = String::from_utf8(resp.body).expect("utf8");
        assert!(body.contains("\"code\":\"not_found\""), "{body}");

        // Two pipelined requests in one write, then one a byte at a time:
        // `read_head` takes exactly a head's bytes, so each body — and the
        // request behind it — is still in the reader.
        use std::io::Read;
        let mut raw = TcpStream::connect(&addr).expect("connect");
        let two = b"POST /v1/echo HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc\
                    POST /v1/echo HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
        raw.write_all(two).expect("write both");
        for byte in
            b"POST /v1/echo HTTP/1.1\r\ncontent-length: 7\r\nconnection: close\r\n\r\ndribble"
        {
            raw.write_all(std::slice::from_ref(byte)).expect("write one byte");
        }
        let mut answers = String::new();
        raw.read_to_string(&mut answers).expect("read to the close");
        let lens: Vec<&str> = answers.split("{\"len\":").skip(1).map(|a| &a[..1]).collect();
        assert_eq!(lens, ["3", "5", "7"], "{answers}");

        stop.store(true, Ordering::SeqCst);
        drop(client);
        thread.join().expect("join");
    }
}
