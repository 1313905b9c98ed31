//! Minimal HTTP/1.1 on std sockets — just enough of RFC 9112 for the
//! daemon's endpoints: request-line + header parsing, `Content-Length`
//! *and* chunked transfer-encoded bodies, keep-alive, `Expect:
//! 100-continue`, and response writing (fixed-length and chunked).
//! Hand-rolled because the workspace is offline-only (no hyper/axum); the
//! surface is deliberately tiny and strict.
//!
//! The parser is split head/body so a server can route *before* buffering a
//! body. There is one grammar, sans-IO — [`parse_head`] and [`BodyDecoder`]
//! consume from a caller-owned byte buffer — and one driver of it, the
//! epoll reactor, which feeds them from non-blocking reads (whole bodies for
//! the plain endpoints, an uncapped incremental decode for
//! `/v1/annotate_stream`) for the daemon and `doduo-balance`'s front alike.
//! The hardening guarantees (smuggling rejections, size caps → HTTP 413,
//! wall-clock deadlines → HTTP 408, see [`ReadError::status`]) are therefore
//! one implementation on both tiers. Responses are rendered in one place,
//! [`render_response`]; the client side reads response heads through one
//! function, [`read_response_head`].
//!
//! Every 4xx/5xx body uses one JSON error envelope (see
//! [`error_envelope`]): `{"error": {"code", "message", "retry_after_ms"?}}`
//! — shared verbatim by `doduo-balance`, so clients parse one shape no
//! matter which tier rejected them.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request line + headers (DoS guard → 413).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body (DoS guard → 413).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// How a request's body bytes are framed on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BodyFraming {
    /// No body (no `Content-Length`, no `Transfer-Encoding`).
    None,
    /// `Content-Length: n`.
    Length(usize),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// One parsed request head (everything before the body).
#[derive(Debug, PartialEq, Eq)]
pub struct Head {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query string stripped).
    pub path: String,
    /// Raw query string (without `?`), empty if absent.
    pub query: String,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
    /// Whether the client sent `Expect: 100-continue` and is waiting for an
    /// interim response before transmitting the body.
    pub expect_continue: bool,
    /// How the body is framed.
    pub framing: BodyFraming,
}

/// Why reading a request failed. Every variant has an answer.
#[derive(Debug)]
pub enum ReadError {
    /// Malformed request; the payload is a human-readable reason to send
    /// back as 400.
    Bad(String),
    /// The head or body exceeded a size limit; send back 413.
    TooLarge(String),
    /// The request dribbled in past its wall-clock deadline; send back 408.
    TooSlow,
}

impl ReadError {
    /// The status and message that answer this failure.
    pub fn status(&self) -> (u16, &str) {
        match self {
            ReadError::Bad(msg) => (400, msg),
            ReadError::TooLarge(msg) => (413, msg),
            ReadError::TooSlow => (408, "request too slow"),
        }
    }
}

/// A request head mid-construction while header lines are applied.
struct HeadBuilder {
    method: String,
    path: String,
    query: String,
    keep_alive: bool,
    expect_continue: bool,
    framing: BodyFraming,
}

impl HeadBuilder {
    /// Parses the request line (`METHOD /target HTTP/1.x`).
    fn from_request_line(line: &str) -> Result<HeadBuilder, ReadError> {
        let mut parts = line.split_whitespace();
        let method = parts.next().unwrap_or("").to_ascii_uppercase();
        let target = parts.next().unwrap_or("");
        let version = parts.next().unwrap_or("");
        if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
            return Err(ReadError::Bad(format!("malformed request line: {}", line.trim_end())));
        }
        let http11 = version == "HTTP/1.1";
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };
        Ok(HeadBuilder {
            method,
            path,
            query,
            keep_alive: http11, // HTTP/1.1 defaults to persistent.
            expect_continue: false,
            framing: BodyFraming::None,
        })
    }

    /// Applies one (already `trim_end`ed, non-empty) header line.
    fn apply_header(&mut self, trimmed: &str) -> Result<(), ReadError> {
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(ReadError::Bad(format!("malformed header: {trimmed}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // Ambiguous framing is a request-smuggling vector (the peer
            // and any intermediary may disagree on where the body ends),
            // so chunked + Content-Length and repeated Content-Length are
            // rejected outright rather than resolved.
            match self.framing {
                BodyFraming::Chunked => {
                    return Err(ReadError::Bad(
                        "both transfer-encoding and content-length present".into(),
                    ))
                }
                BodyFraming::Length(_) => {
                    return Err(ReadError::Bad("duplicate content-length header".into()))
                }
                BodyFraming::None => {}
            }
            let n = framing_number(value, 10)
                .ok_or_else(|| ReadError::Bad(format!("bad content-length: {value}")))?;
            self.framing = BodyFraming::Length(n);
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                self.keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                self.keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            if !value.eq_ignore_ascii_case("chunked") {
                return Err(ReadError::Bad(format!("unsupported transfer-encoding: {value}")));
            }
            if matches!(self.framing, BodyFraming::Length(_)) {
                return Err(ReadError::Bad(
                    "both transfer-encoding and content-length present".into(),
                ));
            }
            self.framing = BodyFraming::Chunked;
        } else if name.eq_ignore_ascii_case("expect") {
            if !value.eq_ignore_ascii_case("100-continue") {
                return Err(ReadError::Bad(format!("unsupported expectation: {value}")));
            }
            self.expect_continue = true;
        }
        Ok(())
    }

    fn finish(self) -> Head {
        Head {
            method: self.method,
            path: self.path,
            query: self.query,
            keep_alive: self.keep_alive,
            expect_continue: self.expect_continue,
            framing: self.framing,
        }
    }
}

/// A framing number as RFC 9112 spells it: `1*DIGIT` for a
/// `Content-Length` (`radix` 10), `1*HEXDIG` for a chunk size (16) — digits
/// and nothing else, or `None` (also past `usize`). `str::parse` and
/// `from_str_radix` take a leading `+` too, and a length two peers may read
/// differently is ambiguous framing, which this module rejects.
fn framing_number(s: &str, radix: u32) -> Option<usize> {
    if s.is_empty() || !s.chars().all(|c| c.is_digit(radix)) {
        return None;
    }
    usize::from_str_radix(s, radix).ok()
}

/// The request-head grammar, sans-IO: parses one head from the front of
/// `buf` (bytes accumulated by the caller's reads). Returns
/// `Ok(Some((head, consumed)))` when a complete head is present, `Ok(None)`
/// when more bytes are needed, [`ReadError::Bad`] for a malformed one and
/// [`ReadError::TooLarge`] past [`MAX_HEAD_BYTES`] — a cap that fires even
/// before the head terminator arrives.
pub fn parse_head(buf: &[u8]) -> Result<Option<(Head, usize)>, ReadError> {
    // Find the blank line ending the head: the first "\n" followed by an
    // optionally-\r'd "\n" (the line readers accept bare-LF lines too).
    let mut end = None;
    let mut i = 0usize;
    while let Some(pos) = buf[i..].iter().position(|&b| b == b'\n') {
        let line_start = i;
        i += pos + 1;
        let line = &buf[line_start..i];
        let is_blank = line == b"\n" || line == b"\r\n";
        if is_blank && line_start > 0 {
            end = Some(i);
            break;
        }
    }
    let Some(end) = end else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ReadError::TooLarge("request head too large".into()));
        }
        return Ok(None);
    };
    if end > MAX_HEAD_BYTES {
        return Err(ReadError::TooLarge("request head too large".into()));
    }
    let text = std::str::from_utf8(&buf[..end])
        .map_err(|_| ReadError::Bad("request head is not valid UTF-8".into()))?;
    let mut lines = text.split('\n');
    let request_line = lines.next().unwrap_or("");
    let mut head = HeadBuilder::from_request_line(request_line)?;
    for line in lines {
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        head.apply_header(trimmed)?;
    }
    Ok(Some((head.finish(), end)))
}

#[derive(Debug, PartialEq, Eq)]
enum ChunkState {
    /// Expecting a `<hex-size>\r\n` line.
    Size,
    /// Mid-payload (`remaining` bytes left, then a CRLF).
    Data,
    /// Expecting the CRLF that terminates a chunk payload.
    DataEnd,
    /// Expecting trailer lines after the `0` chunk (ended by a blank line).
    Trailer,
    /// Body fully consumed.
    Done,
}

/// The request-body decoder: `Content-Length` or chunked framing, sans-IO.
/// The caller appends whatever its reads return and feeds it here; the
/// decoder consumes what it can, appends decoded body bytes to `out`, and
/// remembers its position across calls. Bad chunk framing is
/// [`ReadError::Bad`] (→ 400), a body past its cap [`ReadError::TooLarge`]
/// (→ 413).
#[derive(Debug)]
pub struct BodyDecoder {
    framing: BodyFraming,
    /// Bytes left in the current content-length body or chunk payload.
    remaining: usize,
    state: ChunkState,
    /// Partial chunk-header line carried across feeds.
    partial: Vec<u8>,
    /// Total body bytes produced so far.
    produced: usize,
    /// Cap on `produced` (→ 413).
    cap: usize,
}

impl BodyDecoder {
    /// A decoder at the start of a body framed as `framing`, capped at
    /// [`MAX_BODY_BYTES`] total (the right default for buffered bodies). A
    /// declared-oversized `Content-Length` is rejected on the first
    /// [`BodyDecoder::push`], before buffering.
    pub fn new(framing: BodyFraming) -> BodyDecoder {
        let (remaining, state) = match framing {
            BodyFraming::None => (0, ChunkState::Done),
            BodyFraming::Length(n) => (n, if n == 0 { ChunkState::Done } else { ChunkState::Data }),
            BodyFraming::Chunked => (0, ChunkState::Size),
        };
        let partial = Vec::new();
        BodyDecoder { framing, remaining, state, partial, produced: 0, cap: MAX_BODY_BYTES }
    }

    /// [`BodyDecoder::new`] without the total-size cap, for a caller that
    /// consumes the body incrementally and bounds its memory another way: a
    /// stream caps its documents and read-ahead, not its total length.
    pub fn unbounded(framing: BodyFraming) -> BodyDecoder {
        BodyDecoder { cap: usize::MAX, ..BodyDecoder::new(framing) }
    }

    /// True once the body has been fully decoded.
    pub fn is_done(&self) -> bool {
        self.state == ChunkState::Done
    }

    /// Consumes as much of `input` as possible, appending decoded body
    /// bytes to `out`. Returns the number of input bytes consumed; check
    /// [`BodyDecoder::is_done`] to see whether the body is complete (a
    /// short consume with `is_done() == false` means more wire bytes are
    /// needed).
    pub fn push(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<usize, ReadError> {
        if let BodyFraming::Length(n) = self.framing {
            if n > self.cap {
                return Err(ReadError::TooLarge(format!("body of {n} bytes exceeds limit")));
            }
        }
        let mut used = 0usize;
        loop {
            let rest = &input[used..];
            match self.state {
                ChunkState::Done => return Ok(used),
                ChunkState::Data => {
                    if rest.is_empty() {
                        return Ok(used);
                    }
                    let take = self.remaining.min(rest.len());
                    if self.produced.saturating_add(take) > self.cap {
                        return Err(ReadError::TooLarge("body exceeds limit".into()));
                    }
                    out.extend_from_slice(&rest[..take]);
                    self.produced += take;
                    self.remaining -= take;
                    used += take;
                    if self.remaining == 0 {
                        self.state = match self.framing {
                            BodyFraming::Length(_) => ChunkState::Done,
                            BodyFraming::Chunked => ChunkState::DataEnd,
                            BodyFraming::None => unreachable!("no-body framing has no data"),
                        };
                    }
                }
                ChunkState::Size => {
                    let Some(line) = self.take_line(rest, &mut used)? else { return Ok(used) };
                    let hex = line.split(';').next().unwrap_or("").trim();
                    let size = framing_number(hex, 16)
                        .ok_or_else(|| ReadError::Bad(format!("bad chunk size: {hex:?}")))?;
                    if size == 0 {
                        self.state = ChunkState::Trailer;
                    } else {
                        if self.produced.saturating_add(size) > self.cap {
                            return Err(ReadError::TooLarge("chunked body exceeds limit".into()));
                        }
                        self.remaining = size;
                        self.state = ChunkState::Data;
                    }
                }
                ChunkState::DataEnd => {
                    let Some(line) = self.take_line(rest, &mut used)? else { return Ok(used) };
                    if !line.is_empty() {
                        return Err(ReadError::Bad("missing CRLF after chunk data".into()));
                    }
                    self.state = ChunkState::Size;
                }
                ChunkState::Trailer => {
                    let Some(line) = self.take_line(rest, &mut used)? else { return Ok(used) };
                    if line.is_empty() {
                        self.state = ChunkState::Done;
                        return Ok(used);
                    }
                    // Trailer fields are read and discarded.
                }
            }
        }
    }

    /// Pulls one framing line out of `rest`, accumulating partial bytes
    /// across feeds. `Ok(None)` = need more input.
    fn take_line(&mut self, rest: &[u8], used: &mut usize) -> Result<Option<String>, ReadError> {
        match rest.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                self.partial.extend_from_slice(&rest[..=pos]);
                *used += pos + 1;
            }
            None => {
                self.partial.extend_from_slice(rest);
                *used += rest.len();
            }
        }
        if self.partial.len() > 256 {
            return Err(ReadError::Bad("chunk framing line too long".into()));
        }
        if self.partial.last() != Some(&b'\n') {
            return Ok(None);
        }
        let line = std::str::from_utf8(&self.partial)
            .map_err(|_| ReadError::Bad("chunk framing is not valid UTF-8".into()))?
            .trim_end()
            .to_string();
        self.partial.clear();
        Ok(Some(line))
    }
}

/// The canonical reason phrase for the status codes this workspace emits.
pub fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The machine-readable error `code` the unified envelope carries for a
/// given status, used when a caller only has a status + human message.
pub fn code_for_status(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        408 => "request_timeout",
        413 => "payload_too_large",
        500 => "internal",
        501 => "not_implemented",
        502 => "bad_gateway",
        503 => "unavailable",
        _ => "error",
    }
}

/// Renders the unified error envelope shared by `doduo-served` and
/// `doduo-balance`:
/// `{"error":{"code":"...","message":"...","retry_after_ms":N}}` (the
/// `retry_after_ms` field appears only when a retry hint is given).
pub fn error_envelope(code: &str, message: &str, retry_after_ms: Option<u64>) -> String {
    let mut body = String::from("{\"error\":{\"code\":");
    crate::json::push_escaped(&mut body, code);
    body.push_str(",\"message\":");
    crate::json::push_escaped(&mut body, message);
    if let Some(ms) = retry_after_ms {
        body.push_str(&format!(",\"retry_after_ms\":{ms}"));
    }
    body.push_str("}}\n");
    body
}

/// Formats a full response (head + body) into one byte buffer — what the
/// epoll reactor queues on a connection's outbox, on both tiers.
pub fn render_response(
    status: u16,
    reason: &str,
    content_type: &str,
    extra: &str,
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: \
         {}\r\nconnection: {}\r\n{extra}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Starts a chunked (streaming) response: status line + headers, no body
/// yet. Follow with [`write_chunk`] calls and one [`write_last_chunk`].
pub fn write_chunked_head(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ntransfer-encoding: \
         chunked\r\nconnection: close\r\n\r\n"
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes one response chunk (no-op for empty data, which would terminate
/// the stream early).
pub fn write_chunk(stream: &mut impl Write, data: &[u8]) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminates a chunked response (`0\r\n\r\n`).
pub fn write_last_chunk(stream: &mut impl Write) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// A very small blocking HTTP client — shared by the `serve_load` bench and
/// the integration tests so they exercise the daemon over real sockets.
/// One persistent connection; [`Client::request`] for plain
/// request/response, the `stream_*` family for chunked uploads with
/// incrementally read chunked responses.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Dechunking state for an in-flight streaming response.
    resp_chunk_left: usize,
    resp_done: bool,
    resp_buf: Vec<u8>,
}

/// A decoded client-side response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Seconds from a `Retry-After` header, if the server sent one (the
    /// backoff hint on 503 backpressure responses).
    pub retry_after: Option<u64>,
    /// The `x-model-version` header, if the server sent one — the
    /// `"{version}-{crc:08x}"` label of the model that produced this
    /// response.
    pub model_version: Option<String>,
}

/// The response-head fields [`read_response_head`] extracts.
#[derive(Debug)]
pub struct ResponseHead {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Length` (0 when absent; a malformed one is an error).
    pub content_length: usize,
    /// `Transfer-Encoding: chunked`.
    pub chunked: bool,
    /// `Content-Type`, when sent.
    pub content_type: Option<String>,
    /// Seconds from a `Retry-After` header.
    pub retry_after: Option<u64>,
    /// The `x-model-version` header.
    pub model_version: Option<String>,
    /// False when the server sent `connection: close`.
    pub keep_alive: bool,
}

/// Reads one response's status line and headers from `reader`, skipping
/// interim `1xx` responses (`100 Continue`) — the one response-head reader
/// of [`Client`] and `doduo-balance`'s replica links.
pub fn read_response_head(reader: &mut impl BufRead) -> std::io::Result<ResponseHead> {
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line: {line:?}")))?;
        let mut head = ResponseHead {
            status,
            content_length: 0,
            chunked: false,
            content_type: None,
            retry_after: None,
            model_version: None,
            keep_alive: true,
        };
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other("connection closed mid-headers"));
            }
            let t = line.trim_end();
            if t.is_empty() {
                break;
            }
            let Some((name, value)) = t.split_once(':') else { continue };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                head.content_length = framing_number(value, 10).ok_or_else(|| {
                    std::io::Error::other(format!("bad content-length: {value:?}"))
                })?;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                head.chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("content-type") {
                head.content_type = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("retry-after") {
                head.retry_after = value.parse().ok();
            } else if name.eq_ignore_ascii_case("x-model-version") {
                head.model_version = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("connection") {
                head.keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
        if !(100..200).contains(&status) {
            return Ok(head);
        }
    }
}

impl Client {
    /// Connects with an optional read timeout.
    pub fn connect(addr: &str, timeout: Option<Duration>) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(timeout)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader, resp_chunk_left: 0, resp_done: true, resp_buf: Vec::new() })
    }

    /// Issues one request on the persistent connection and reads the full
    /// response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: localhost\r\nconnection: keep-alive\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()?;

        let head = read_response_head(&mut self.reader)?;
        let mut body = vec![0u8; head.content_length];
        self.reader.read_exact(&mut body)?;
        Ok(Response {
            status: head.status,
            body,
            retry_after: head.retry_after,
            model_version: head.model_version,
        })
    }

    /// Opens a chunked-upload request (e.g. to `/v1/annotate_stream`). Send
    /// body pieces with [`Client::stream_send`], end the upload with
    /// [`Client::stream_finish`], and read results with
    /// [`Client::stream_status`] / [`Client::stream_next_line`] — reading
    /// may be interleaved with sending to observe true streaming.
    pub fn stream_open(&mut self, path: &str) -> std::io::Result<()> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nhost: localhost\r\ntransfer-encoding: chunked\r\n\r\n"
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.flush()?;
        self.resp_chunk_left = 0;
        self.resp_done = false;
        self.resp_buf.clear();
        Ok(())
    }

    /// Sends one request-body chunk.
    pub fn stream_send(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates the chunked upload.
    pub fn stream_finish(&mut self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }

    /// Reads the streaming response's status line + headers (call once,
    /// any time after [`Client::stream_open`]).
    pub fn stream_status(&mut self) -> std::io::Result<u16> {
        let head = read_response_head(&mut self.reader)?;
        if !head.chunked {
            self.resp_done = true;
        }
        Ok(head.status)
    }

    /// Returns the next newline-terminated line of the dechunked response
    /// body (with its `\n`), or `None` once the final chunk has been read.
    /// Call after [`Client::stream_status`].
    pub fn stream_next_line(&mut self) -> std::io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.resp_buf.iter().position(|&b| b == b'\n') {
                let rest = self.resp_buf.split_off(pos + 1);
                let line = std::mem::replace(&mut self.resp_buf, rest);
                let line = String::from_utf8(line)
                    .map_err(|_| std::io::Error::other("response is not valid UTF-8"))?;
                return Ok(Some(line));
            }
            if self.resp_done {
                if self.resp_buf.is_empty() {
                    return Ok(None);
                }
                let line = String::from_utf8(std::mem::take(&mut self.resp_buf))
                    .map_err(|_| std::io::Error::other("response is not valid UTF-8"))?;
                return Ok(Some(line));
            }
            if self.resp_chunk_left == 0 {
                let mut line = String::new();
                self.reader.read_line(&mut line)?;
                let hex = line.trim();
                let size = framing_number(hex, 16).ok_or_else(|| {
                    std::io::Error::other(format!("bad response chunk size: {hex:?}"))
                })?;
                if size == 0 {
                    // Trailer: consume through the blank line.
                    loop {
                        line.clear();
                        self.reader.read_line(&mut line)?;
                        if line.trim_end().is_empty() {
                            break;
                        }
                    }
                    self.resp_done = true;
                    continue;
                }
                self.resp_chunk_left = size;
            }
            let mut buf = vec![0u8; self.resp_chunk_left];
            self.reader.read_exact(&mut buf)?;
            self.resp_buf.extend_from_slice(&buf);
            self.resp_chunk_left = 0;
            let mut crlf = [0u8; 2];
            self.reader.read_exact(&mut crlf)?;
            if &crlf != b"\r\n" {
                return Err(std::io::Error::other("missing CRLF after response chunk"));
            }
        }
    }

    /// Drains a whole streaming response: status plus every dechunked line.
    pub fn stream_collect(&mut self) -> std::io::Result<(u16, Vec<String>)> {
        let status = self.stream_status()?;
        let mut lines = Vec::new();
        while let Some(line) = self.stream_next_line()? {
            lines.push(line);
        }
        Ok((status, lines))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_content_length_is_digits_or_an_error() {
        let head = |len: &str| {
            let bytes = format!("HTTP/1.1 200 OK\r\ncontent-length: {len}\r\n\r\nhello");
            read_response_head(&mut bytes.as_bytes()).map(|h| h.content_length)
        };
        assert_eq!(head("5").expect("a plain length"), 5);
        // A replica link that read these as 5, or as 0, would forward a
        // body the replica never framed.
        for bad in ["+5", "-5", "5x", "0x5", "", "banana", "99999999999999999999999"] {
            let err = head(bad).expect_err(bad);
            assert!(err.to_string().contains("bad content-length"), "{bad:?}: {err}");
        }
    }
}
