//! Transport-independent request handling.
//!
//! [`HttpRequest`] and [`HttpResponse`] are the seam between "how bytes
//! arrive" and "what the response is": the epoll reactor hands its
//! [`Driver`](crate::reactor::Driver) the one and renders the other with
//! [`render_http_response`] — for the daemon, for `doduo-balance`'s front
//! and for the scripted mock backends of its failover tests alike.
//! Streaming (`POST /v1/annotate_stream`) is the one endpoint outside this
//! seam: it never has a fully received request, so it is a state of the
//! reactor's connection machine ([`crate::reactor::StreamHooks`]) instead.
//!
//! Routes have one name each, the literal `/v1/...` path.

use crate::http::{self, Head};

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
    /// Complete response body, as bytes: a relayed replica body is kept
    /// exactly as it arrived.
    pub body: Vec<u8>,
    /// Force `connection: close` and drop the connection afterwards,
    /// regardless of what the client asked for.
    pub close: bool,
}

/// What a driver tells the reactor to put on the wire.
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
    pub fn text(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse::Payload(Payload {
            status,
            content_type: content_type.to_string(),
            extra: String::new(),
            body: body.into(),
            close: false,
        })
    }

    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> HttpResponse {
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
    /// `retry_after_ms` in the envelope, so well-behaved clients (the
    /// balancer, the `serve_load` closed-loop clients) back off.
    pub fn unavailable(code: &str, message: &str, retry_after_secs: u64) -> HttpResponse {
        HttpResponse::json(503, http::error_envelope(code, message, Some(retry_after_secs * 1000)))
            .with_header("retry-after", &retry_after_secs.to_string())
    }

    /// Marks the response connection-closing (a no-op for the variants
    /// that already sever).
    pub fn close(mut self) -> HttpResponse {
        if let HttpResponse::Payload(p) = &mut self {
            p.close = true;
        }
        self
    }

    /// [`HttpResponse::close`] when `closing` — a server ending keep-alive
    /// on its own account (shutdown), whatever the client asked for.
    pub fn close_if(self, closing: bool) -> HttpResponse {
        if closing {
            self.close()
        } else {
            self
        }
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
        let body = String::from_utf8_lossy(&p.body);
        assert_eq!(p.status, 404);
        assert!(body.contains("\"code\":\"not_found\""), "{body}");
        assert!(body.contains("\"message\":\"no route\""), "{body}");
        assert!(!body.contains("retry_after_ms"), "{body}");

        let HttpResponse::Payload(p) = HttpResponse::unavailable("overloaded", "busy", 2) else {
            panic!("payload expected")
        };
        let body = String::from_utf8_lossy(&p.body);
        assert_eq!(p.status, 503);
        assert!(p.extra.contains("retry-after: 2"), "{}", p.extra);
        assert!(body.contains("\"retry_after_ms\":2000"), "{body}");
    }

    #[test]
    fn body_bytes_are_rendered_exactly() {
        let bytes = vec![b'{', 0xff, 0x00, b'}'];
        let (wire, _) = render_http_response(&HttpResponse::json(502, bytes.clone()), true);
        assert!(wire.ends_with(&bytes), "non-UTF-8 body bytes pass through untouched");
        assert!(String::from_utf8_lossy(&wire).contains("content-length: 4\r\n"));
    }
}
