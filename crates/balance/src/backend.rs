//! One keep-alive connection from the balancer to a replica, with the
//! failure classification the whole retry policy hangs on.
//!
//! [`Backend::forward`] distinguishes two failure classes:
//!
//! * **Before-response** — connect refused, write failed, timeout or EOF
//!   before the *first byte* of the status line. The replica cannot have
//!   committed to an answer the client saw, and `/annotate` is
//!   deterministic and side-effect-free, so the request is safe to retry
//!   on another replica.
//! * **Mid-response** — any error after at least one response byte was
//!   read. The answer started flowing; retrying could double-deliver a
//!   response or hand the client bytes from two different attempts. The
//!   balancer converts this to a `502` and never re-dispatches.
//!
//! A complete response — any status — is not a transport failure; the
//! *proxy* decides whether a complete `5xx` is worth retrying elsewhere.
//! Past the first-byte probe, the head is read by the same function
//! `doduo_served::http::Client` uses.

use doduo_served::http::read_response_head;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Why forwarding to a replica failed.
#[derive(Debug)]
pub enum ForwardError {
    /// The replica never produced a response byte — safe to retry.
    BeforeResponse(String),
    /// Response bytes began flowing and then the connection died — the
    /// request must NOT be retried.
    MidResponse(String),
}

/// One complete response read back from a replica.
#[derive(Debug)]
pub struct BackendResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value (defaults to `application/json`).
    pub content_type: String,
    /// `Retry-After` seconds, when the replica sent one (503 backpressure).
    pub retry_after: Option<u64>,
    /// `x-model-version` header, when the replica sent one (annotate and
    /// model-swap responses carry the engine version that produced them).
    pub model_version: Option<String>,
    /// The full body.
    pub body: Vec<u8>,
    /// Whether the replica will keep this connection open.
    pub keep_alive: bool,
}

/// A pooled balancer→replica connection.
#[derive(Debug)]
pub struct Backend {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Backend {
    /// Connects with a bounded connect timeout and a per-read timeout
    /// (which bounds each wait for response bytes, i.e. detects a stalled
    /// replica).
    pub fn connect(
        addr: &str,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> std::io::Result<Backend> {
        let sock: SocketAddr = addr
            .parse()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{e}")))?;
        let stream = TcpStream::connect_timeout(&sock, connect_timeout)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(connect_timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Backend { stream, reader })
    }

    /// Whether a pooled idle link has gone stale. A parked keep-alive
    /// connection must have *nothing* to read: a zero-timeout readiness
    /// probe that reports readable means either EOF (the replica
    /// restarted) or stray bytes — in both cases forwarding on it would
    /// burn a retry attempt, so the pool drops it and dials fresh. This is
    /// a pure readiness probe (no bytes consumed) via the same shim the
    /// daemon's reactor runs on.
    pub fn is_stale(&self) -> bool {
        if !self.reader.buffer().is_empty() {
            return true;
        }
        match epoll::poll_one(self.stream.as_raw_fd(), epoll::EPOLLIN, Some(Duration::ZERO)) {
            Ok(revents) => revents != 0,
            Err(_) => true,
        }
    }

    /// Sends one request and reads the full response, classifying any
    /// failure as before- or mid-response (see module docs).
    pub fn forward(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<BackendResponse, ForwardError> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: localhost\r\nconnection: keep-alive\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        );
        // A write failure means the replica died while receiving the
        // request; it cannot have answered, so this stays retryable.
        self.stream
            .write_all(head.as_bytes())
            .and_then(|()| self.stream.write_all(body))
            .and_then(|()| self.stream.flush())
            .map_err(|e| ForwardError::BeforeResponse(format!("write: {e}")))?;

        // The first-byte probe is the before/mid boundary: an error or EOF
        // here is retryable, anything after it is not.
        let started = loop {
            match self.reader.fill_buf() {
                Ok([]) => {
                    return Err(ForwardError::BeforeResponse("closed before response".into()))
                }
                Ok(_) => break true,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(ForwardError::BeforeResponse("timed out awaiting response".into()))
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ForwardError::BeforeResponse(format!("read: {e}"))),
            }
        };
        debug_assert!(started);
        let head = read_response_head(&mut self.reader)
            .map_err(|e| ForwardError::MidResponse(format!("{e}")))?;
        if head.chunked {
            // Replicas only chunk `/annotate_stream`, which the balancer
            // never proxies; treat it as a torn response.
            return Err(ForwardError::MidResponse("unexpected chunked response".into()));
        }
        let mut body = vec![0u8; head.content_length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| ForwardError::MidResponse(format!("body: {e}")))?;
        Ok(BackendResponse {
            status: head.status,
            content_type: head.content_type.unwrap_or_else(|| "application/json".into()),
            retry_after: head.retry_after,
            model_version: head.model_version,
            body,
            keep_alive: head.keep_alive,
        })
    }
}
