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
//! [`render_response`].
//!
//! The client side is one blocking [`Client`] — the balancer's replica
//! links, its supervisor's probes, the benchmarks and the tests all dial
//! through it. It reads response heads through [`read_response_head`]
//! (framing and `connection` by the request grammar's rules, capped at
//! [`MAX_HEAD_BYTES`]) and every response body, `Content-Length` or
//! chunked, through the server's [`BodyDecoder`].
//!
//! Every 4xx/5xx body uses one JSON error envelope (see
//! [`error_envelope`]): `{"error": {"code", "message", "retry_after_ms"?}}`
//! — shared verbatim by `doduo-balance`, so clients parse one shape no
//! matter which tier rejected them.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
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
        apply_framing(name, value, &mut self.framing, &mut self.keep_alive)?;
        if name.eq_ignore_ascii_case("expect") {
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

/// Applies a `content-length`, `transfer-encoding` or `connection` header
/// (any other is left alone) to a head's body framing and persistence — one
/// rule set for request and response heads. Ambiguous framing is a
/// smuggling vector (the peer and any intermediary may disagree on where
/// the body ends), so chunked + `Content-Length` and a repeated
/// `Content-Length` are rejected outright rather than resolved.
fn apply_framing(
    name: &str,
    value: &str,
    framing: &mut BodyFraming,
    keep_alive: &mut bool,
) -> Result<(), ReadError> {
    let both = || ReadError::Bad("both transfer-encoding and content-length present".into());
    if name.eq_ignore_ascii_case("content-length") {
        match framing {
            BodyFraming::Chunked => return Err(both()),
            BodyFraming::Length(_) => {
                return Err(ReadError::Bad("duplicate content-length header".into()))
            }
            BodyFraming::None => {}
        }
        let n = framing_number(value, 10)
            .ok_or_else(|| ReadError::Bad(format!("bad content-length: {value}")))?;
        *framing = BodyFraming::Length(n);
    } else if name.eq_ignore_ascii_case("transfer-encoding") {
        if !value.eq_ignore_ascii_case("chunked") {
            return Err(ReadError::Bad(format!("unsupported transfer-encoding: {value}")));
        }
        if matches!(framing, BodyFraming::Length(_)) {
            return Err(both());
        }
        *framing = BodyFraming::Chunked;
    } else if name.eq_ignore_ascii_case("connection") {
        if value.eq_ignore_ascii_case("close") {
            *keep_alive = false;
        } else if value.eq_ignore_ascii_case("keep-alive") {
            *keep_alive = true;
        }
    }
    Ok(())
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

/// The workspace's one blocking HTTP client (see the module docs): one
/// persistent connection, [`Client::request`] / [`Client::exchange`] for
/// plain request/response, the `stream_*` family for chunked uploads with
/// incrementally read responses. A body grows only as its bytes arrive,
/// whatever length the peer declared.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// The streaming response's body, from [`Client::stream_status`] on.
    stream_body: Option<BodyDecoder>,
    /// Its decoded bytes not yet returned as lines.
    stream_lines: Vec<u8>,
}

/// A decoded client-side response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (dechunked when the server chunked them).
    pub body: Vec<u8>,
    /// `Content-Type`, when sent.
    pub content_type: Option<String>,
    /// Seconds from a `Retry-After` header, if the server sent one (the
    /// backoff hint on 503 backpressure responses).
    pub retry_after: Option<u64>,
    /// The `x-model-version` header, if the server sent one — the
    /// `"{version}-{crc:08x}"` label of the model that produced this
    /// response.
    pub model_version: Option<String>,
    /// Whether the server keeps the connection open for another request.
    pub keep_alive: bool,
}

/// Why [`Client::exchange`] failed, split at the first response byte — the
/// line the balancer's retry policy rests on.
#[derive(Debug)]
pub enum ExchangeError {
    /// The write failed, or the read timed out or met EOF before the first
    /// byte of the status line: the server cannot have committed to an
    /// answer, so the request is safe to send elsewhere.
    BeforeResponse(std::io::Error),
    /// The response began and then failed (a bad head, a torn body): a
    /// resend could deliver a second answer.
    MidResponse(std::io::Error),
}

/// The response-head fields [`read_response_head`] extracts.
#[derive(Debug)]
pub struct ResponseHead {
    /// HTTP status code.
    pub status: u16,
    /// How the body is framed ([`BodyFraming::None`]: no body).
    pub framing: BodyFraming,
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
/// interim `1xx` responses (`100 Continue`) — the one response-head reader,
/// [`Client`]'s. Framing and `connection` are read by the request grammar's
/// rules (ambiguous framing is an error), and the whole read stops at
/// [`MAX_HEAD_BYTES`] with an error.
pub fn read_response_head(reader: &mut impl BufRead) -> std::io::Result<ResponseHead> {
    let mut budget = MAX_HEAD_BYTES;
    let mut line = String::new();
    let mut next_line = |line: &mut String| {
        line.clear();
        let n = reader.take(budget as u64 + 1).read_line(line)?;
        budget = budget
            .checked_sub(n)
            .ok_or_else(|| std::io::Error::other("response head too large"))?;
        if !line.ends_with('\n') {
            return Err(std::io::Error::other("connection closed mid-head"));
        }
        Ok(())
    };
    let bad = |e: ReadError| std::io::Error::other(e.status().1.to_string());
    loop {
        next_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line: {line:?}")))?;
        let mut head = ResponseHead {
            status,
            framing: BodyFraming::None,
            content_type: None,
            retry_after: None,
            model_version: None,
            keep_alive: true,
        };
        loop {
            next_line(&mut line)?;
            let t = line.trim_end();
            if t.is_empty() {
                break;
            }
            let Some((name, value)) = t.split_once(':') else { continue };
            let value = value.trim();
            apply_framing(name, value, &mut head.framing, &mut head.keep_alive).map_err(bad)?;
            if name.eq_ignore_ascii_case("content-type") {
                head.content_type = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("retry-after") {
                head.retry_after = value.parse().ok();
            } else if name.eq_ignore_ascii_case("x-model-version") {
                head.model_version = Some(value.to_string());
            }
        }
        if !(100..200).contains(&status) {
            return Ok(head);
        }
    }
}

/// The next buffered wire bytes, reading the socket when none are
/// buffered; the peer closing is an [`std::io::ErrorKind::UnexpectedEof`].
fn fill(reader: &mut BufReader<TcpStream>) -> std::io::Result<&[u8]> {
    loop {
        match reader.fill_buf() {
            Ok([]) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(reader.buffer())
}

/// Feeds `body` the next wire bytes, appending what it decodes to `out`.
fn decode_some(
    reader: &mut BufReader<TcpStream>,
    body: &mut BodyDecoder,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    let used = body
        .push(fill(reader)?, out)
        .map_err(|e| std::io::Error::other(e.status().1.to_string()))?;
    reader.consume(used);
    Ok(())
}

impl Client {
    /// Connects with an optional read timeout.
    pub fn connect(addr: &str, timeout: Option<Duration>) -> std::io::Result<Client> {
        Client::over(TcpStream::connect(addr)?, timeout)
    }

    /// Connects within `connect_timeout`, which then also bounds each
    /// write; `read_timeout` bounds each wait for response bytes, so a
    /// stalled server becomes a [`ExchangeError::BeforeResponse`] timeout.
    /// `addr` is an `ip:port`, as the balancer's replica links dial.
    pub fn dial(
        addr: &str,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> std::io::Result<Client> {
        let sock: SocketAddr = addr.parse().map_err(std::io::Error::other)?;
        let stream = TcpStream::connect_timeout(&sock, connect_timeout)?;
        stream.set_write_timeout(Some(connect_timeout))?;
        Client::over(stream, Some(read_timeout))
    }

    fn over(stream: TcpStream, read_timeout: Option<Duration>) -> std::io::Result<Client> {
        stream.set_read_timeout(read_timeout)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader, stream_body: None, stream_lines: Vec::new() })
    }

    /// Whether a parked keep-alive connection has gone stale. An idle link
    /// must have *nothing* to read: a zero-timeout readiness probe (no byte
    /// consumed, the shim the reactor runs on) that reports readable means
    /// EOF — the server restarted — or stray bytes, and either would fail
    /// the next exchange.
    pub fn is_stale(&self) -> bool {
        if !self.reader.buffer().is_empty() {
            return true;
        }
        match epoll::poll_one(self.stream.as_raw_fd(), epoll::EPOLLIN, Some(Duration::ZERO)) {
            Ok(revents) => revents != 0,
            Err(_) => true,
        }
    }

    /// Issues one request on the persistent connection and reads the full
    /// response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        self.exchange(method, path, body)
            .map_err(|(ExchangeError::BeforeResponse(e) | ExchangeError::MidResponse(e))| e)
    }

    /// [`Client::request`], with a failure classified at the first response
    /// byte (see [`ExchangeError`]).
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<Response, ExchangeError> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: localhost\r\nconnection: keep-alive\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        );
        self.stream
            .write_all(head.as_bytes())
            .and_then(|()| self.stream.write_all(body))
            .and_then(|()| self.stream.flush())
            .and_then(|()| fill(&mut self.reader).map(drop))
            .map_err(ExchangeError::BeforeResponse)?;
        self.read_response().map_err(ExchangeError::MidResponse)
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let head = read_response_head(&mut self.reader)?;
        let mut decoder = BodyDecoder::unbounded(head.framing);
        let mut body = Vec::new();
        while !decoder.is_done() {
            decode_some(&mut self.reader, &mut decoder, &mut body)?;
        }
        Ok(Response {
            status: head.status,
            body,
            content_type: head.content_type,
            retry_after: head.retry_after,
            model_version: head.model_version,
            keep_alive: head.keep_alive,
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
        self.stream_body = None;
        self.stream_lines.clear();
        Ok(())
    }

    /// Sends one request-body chunk.
    pub fn stream_send(&mut self, data: &[u8]) -> std::io::Result<()> {
        write_chunk(&mut self.stream, data)
    }

    /// Terminates the chunked upload.
    pub fn stream_finish(&mut self) -> std::io::Result<()> {
        write_last_chunk(&mut self.stream)
    }

    /// Reads the streaming response's status line + headers (call once,
    /// any time after [`Client::stream_open`]).
    pub fn stream_status(&mut self) -> std::io::Result<u16> {
        let head = read_response_head(&mut self.reader)?;
        self.stream_body = Some(BodyDecoder::unbounded(head.framing));
        Ok(head.status)
    }

    /// Returns the next newline-terminated line of the response body (with
    /// its `\n`; the last line may lack it), or `None` once the body has
    /// ended. Call after [`Client::stream_status`].
    pub fn stream_next_line(&mut self) -> std::io::Result<Option<String>> {
        let utf8 = |bytes| {
            String::from_utf8(bytes)
                .map_err(|_| std::io::Error::other("response is not valid UTF-8"))
        };
        loop {
            if let Some(pos) = self.stream_lines.iter().position(|&b| b == b'\n') {
                let rest = self.stream_lines.split_off(pos + 1);
                return utf8(std::mem::replace(&mut self.stream_lines, rest)).map(Some);
            }
            match &mut self.stream_body {
                Some(body) if !body.is_done() => {
                    decode_some(&mut self.reader, body, &mut self.stream_lines)?
                }
                _ if self.stream_lines.is_empty() => return Ok(None),
                _ => return utf8(std::mem::take(&mut self.stream_lines)).map(Some),
            }
        }
    }

    /// Drains a whole streaming response: status plus every line.
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
            read_response_head(&mut bytes.as_bytes()).map(|h| h.framing)
        };
        assert_eq!(head("5").expect("a plain length"), BodyFraming::Length(5));
        // A replica link that read these as 5, or as 0, would forward a
        // body the replica never framed.
        for bad in ["+5", "-5", "5x", "0x5", "", "banana", "99999999999999999999999"] {
            let err = head(bad).expect_err(bad);
            assert!(err.to_string().contains("bad content-length"), "{bad:?}: {err}");
        }
    }

    /// A peer answering on a scripted listener: `wire` is written after the
    /// request is read, then the connection closes.
    fn scripted(wire: &'static [u8]) -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept");
            let mut head = Vec::new();
            while parse_head(&head).expect("a request head").is_none() {
                let mut byte = [0u8];
                peer.read_exact(&mut byte).expect("request byte");
                head.push(byte[0]);
            }
            peer.write_all(wire).expect("answer");
        });
        addr
    }

    #[test]
    fn a_huge_content_length_is_read_as_bytes_arrive_not_allocated() {
        // Sizing the body by the declared length would abort the process
        // before the first body byte arrived.
        let addr = scripted(b"HTTP/1.1 200 OK\r\ncontent-length: 1099511627776\r\n\r\nhi");
        let mut c = Client::connect(&addr, Some(Duration::from_secs(5))).expect("connect");
        let err = c.request("GET", "/", b"").expect_err("a body cut 1 TiB short");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    }
}
