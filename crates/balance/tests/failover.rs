//! Balancer failover semantics against scripted mock backends.
//!
//! These tests pin the retry contract without real daemons in the loop:
//! before-response failures and complete 5xxs fail over; mid-response
//! failures (a torn body, a torn chunked body, a body advertised past any
//! memory) abort with 502 after exactly one dispatch; 4xxs are forwarded
//! untouched; a replica that closes after each answer costs no retry;
//! overload sheds with `503 + Retry-After`;
//! slow-loris clients are cut off with 408; a fleet swap that fails answers
//! a parseable 502 report; a fleet whose program cannot be spawned exhausts
//! its restart budget and stops the balancer with an error.
//! Two model uploads at once leave every replica on the model the balancer
//! reports committed. A flag the balancer does not have stops it before it
//! spawns a replica.
//!
//! The mocks are one more [`Driver`] on the daemon's epoll reactor — the
//! workspace's one HTTP server — answering every request with
//! `Dispatch::Respond`, so the HTTP plumbing under these tests is the
//! shared implementation, not a hand-rolled mini-server.

use doduo_balance::{BalanceConfig, BalanceHandle, Balancer, SupervisorConfig};
use doduo_served::http::Client;
use doduo_served::json::Json;
use doduo_served::reactor::{Dispatch, Driver, NoStream, Reactor, ReactorConfig, Router, Ticket};
use doduo_served::{HttpRequest, HttpResponse};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a mock backend does with each fully received request.
#[derive(Clone, Copy)]
enum Behavior {
    /// Complete `status` response with a tiny JSON body; keep-alive.
    Status(u16),
    /// Complete 200 carrying an `x-model-version` header (a
    /// lifecycle-aware replica).
    Versioned,
    /// Complete 503 carrying a `Retry-After` hint (replica backpressure).
    Busy(u64),
    /// Advertise a 20-byte body, send 5 bytes, sever the connection.
    PartialThenClose,
    /// A complete-looking `transfer-encoding: chunked` head, then sever.
    ChunkedThenClose,
    /// Advertise a 1 TiB body, send 2 bytes, sever the connection.
    HugeLengthThenClose,
    /// Complete 200 with `connection: close`, then close.
    CloseAfterResponse,
    /// Read the request, close without writing a byte.
    CloseBeforeResponse,
}

struct Mock {
    addr: String,
    /// Requests fully received (each one is a dispatch from the balancer).
    hits: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    /// Its reactor's completion queue: what wakes the reactor to see `stop`.
    router: Arc<Router>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Mock {
    /// Serves `driver` on `listener` from a reactor thread of its own.
    fn serve<D: Driver<TcpStream>>(
        listener: TcpListener,
        driver: impl FnOnce(TcpListener) -> D + Send + 'static,
        hits: Arc<AtomicUsize>,
    ) -> Mock {
        listener.set_nonblocking(true).expect("nonblocking mock listener");
        let addr = listener.local_addr().expect("addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let fd = listener.as_raw_fd();
                let mut reactor =
                    Reactor::new(ReactorConfig::default(), driver(listener)).expect("mock reactor");
                reactor.set_listener(fd).expect("register mock listener");
                tx.send(reactor.router()).expect("hand out the router");
                reactor.run(&stop, Duration::ZERO).expect("serve mock");
            })
        };
        let router = rx.recv().expect("mock reactor started");
        Mock { addr, hits, stop, router, thread: Some(thread) }
    }
}

impl Drop for Mock {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.router.nudge();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The scripted part of a mock: the response each fully received request
/// earns.
struct MockDriver {
    listener: TcpListener,
    behavior: Behavior,
    hits: Arc<AtomicUsize>,
}

impl Driver<TcpStream> for MockDriver {
    type Stream = NoStream;

    fn accept(&self) -> std::io::Result<Option<TcpStream>> {
        match self.listener.accept() {
            Ok((stream, _)) => Ok(Some(stream)),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn dispatch(&self, _ticket: Ticket, _req: HttpRequest, _prior: u64) -> Dispatch {
        self.hits.fetch_add(1, Ordering::SeqCst);
        Dispatch::Respond(match self.behavior {
            Behavior::Status(status) => {
                HttpResponse::json(status, format!("{{\"mock\":{status}}}\n"))
            }
            Behavior::Versioned => HttpResponse::json(200, "{\"mock\":200}\n")
                .with_header("x-model-version", "9-deadbeef"),
            Behavior::Busy(secs) => HttpResponse::json(503, "{\"mock\":503}\n")
                .with_header("retry-after", &secs.to_string()),
            Behavior::PartialThenClose => {
                let mut torn = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                      content-length: 20\r\nconnection: keep-alive\r\n\r\n"
                    .to_vec();
                torn.extend_from_slice(b"{\"tor");
                HttpResponse::RawThenClose(torn)
            }
            Behavior::ChunkedThenClose => HttpResponse::RawThenClose(
                b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                  transfer-encoding: chunked\r\n\r\n5\r\n{\"mo\r\n"
                    .to_vec(),
            ),
            Behavior::HugeLengthThenClose => HttpResponse::RawThenClose(
                b"HTTP/1.1 200 OK\r\ncontent-length: 1099511627776\r\n\r\n{}".to_vec(),
            ),
            Behavior::CloseAfterResponse => HttpResponse::json(200, "{\"mock\":200}\n").close(),
            Behavior::CloseBeforeResponse => HttpResponse::Hangup,
        })
    }
}

/// A scripted backend: a [`MockDriver`] on its own reactor thread.
fn mock(behavior: Behavior) -> Mock {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind mock");
    let hits = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&hits);
    Mock::serve(listener, move |listener| MockDriver { listener, behavior, hits: counter }, hits)
}

/// An address that refuses connections (bound then immediately released).
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.local_addr().expect("addr").to_string()
}

fn start_balancer(
    cfg: BalanceConfig,
) -> (SocketAddr, BalanceHandle, std::thread::JoinHandle<Result<(), String>>) {
    let balancer = Balancer::bind(cfg).expect("bind balancer");
    let addr = balancer.addr();
    let handle = balancer.handle();
    let thread = std::thread::spawn(move || balancer.run());
    (addr, handle, thread)
}

fn cfg_with_backends(backends: Vec<String>) -> BalanceConfig {
    BalanceConfig {
        addr: "127.0.0.1:0".into(),
        static_backends: backends,
        retry_rounds: 2,
        connect_timeout: Duration::from_millis(500),
        response_timeout: Duration::from_millis(2_000),
        retry_backoff_base: Duration::from_millis(5),
        retry_backoff_cap: Duration::from_millis(20),
        ..BalanceConfig::default()
    }
}

fn get_stats(addr: &SocketAddr) -> String {
    let mut client = Client::connect(&addr.to_string(), Some(Duration::from_secs(5)))
        .expect("connect for stats");
    let resp = client.request("GET", "/v1/stats", b"").expect("stats");
    assert_eq!(resp.status, 200);
    String::from_utf8(resp.body).expect("utf8 stats")
}

fn stat(stats: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = &stats[stats.find(&pat).unwrap_or_else(|| panic!("{key} in {stats}")) + pat.len()..];
    rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().expect("number")
}

#[test]
fn connect_refused_fails_over_to_the_next_replica() {
    let live = mock(Behavior::Status(200));
    let (addr, handle, thread) =
        start_balancer(cfg_with_backends(vec![dead_addr(), live.addr.clone()]));

    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    let resp = client.request("POST", "/v1/annotate", b"{}").expect("request");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"{\"mock\":200}\n");
    assert_eq!(live.hits.load(Ordering::SeqCst), 1);

    let stats = get_stats(&addr);
    assert_eq!(stat(&stats, "requests_ok"), 1, "stats: {stats}");
    assert_eq!(stat(&stats, "retries"), 1, "the dead replica cost one attempt: {stats}");
    assert_eq!(stat(&stats, "requests_failed"), 0, "stats: {stats}");

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

#[test]
fn close_before_response_is_retried_elsewhere() {
    let flaky = mock(Behavior::CloseBeforeResponse);
    let live = mock(Behavior::Status(200));
    let (addr, handle, thread) =
        start_balancer(cfg_with_backends(vec![flaky.addr.clone(), live.addr.clone()]));

    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    let resp = client.request("POST", "/v1/annotate", b"{}").expect("request");
    assert_eq!(resp.status, 200, "zero response bytes flowed, so the request was retryable");
    assert_eq!(flaky.hits.load(Ordering::SeqCst), 1);
    assert_eq!(live.hits.load(Ordering::SeqCst), 1);

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

#[test]
fn complete_5xx_fails_over_and_exhaustion_forwards_the_last_5xx() {
    let sick = mock(Behavior::Status(500));
    let live = mock(Behavior::Status(200));
    let (addr, handle, thread) =
        start_balancer(cfg_with_backends(vec![sick.addr.clone(), live.addr.clone()]));

    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    let resp = client.request("POST", "/v1/annotate", b"{}").expect("request");
    assert_eq!(resp.status, 200, "the healthy replica's answer wins over the 500");
    assert_eq!(sick.hits.load(Ordering::SeqCst), 1);

    handle.shutdown();
    thread.join().expect("join").expect("clean run");

    // All replicas 5xx: the last one is forwarded honestly after the
    // retry rounds are exhausted.
    let sick2 = mock(Behavior::Status(500));
    let (addr, handle, thread) = start_balancer(cfg_with_backends(vec![sick2.addr.clone()]));
    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    let resp = client.request("POST", "/v1/annotate", b"{}").expect("request");
    assert_eq!(resp.status, 500);
    assert_eq!(resp.body, b"{\"mock\":500}\n", "the replica's own 5xx body is preserved");
    assert_eq!(sick2.hits.load(Ordering::SeqCst), 2, "one dispatch per retry round");
    let stats = get_stats(&addr);
    assert_eq!(stat(&stats, "requests_failed"), 1, "stats: {stats}");

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

/// The `Retry-After` propagation pin: when every replica answers a
/// complete 503 and the retry rounds are exhausted, the forwarded 503 must
/// still carry the *backend's* `Retry-After` hint, not drop it.
#[test]
fn retry_exhaustion_forwards_the_backends_retry_after_hint() {
    let busy = mock(Behavior::Busy(7));
    let (addr, handle, thread) = start_balancer(cfg_with_backends(vec![busy.addr.clone()]));

    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    let resp = client.request("POST", "/v1/annotate", b"{}").expect("request");
    assert_eq!(resp.status, 503);
    assert_eq!(resp.retry_after, Some(7), "the replica's own hint must survive the relay");
    assert_eq!(busy.hits.load(Ordering::SeqCst), 2, "one dispatch per retry round");

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

/// Proxied responses re-emit the replica's `x-model-version` header, so a
/// client can tell which model answered even through the balancer.
#[test]
fn annotate_answers_relay_the_model_version_header() {
    let live = mock(Behavior::Versioned);
    let (addr, handle, thread) = start_balancer(cfg_with_backends(vec![live.addr.clone()]));

    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    let resp = client.request("POST", "/v1/annotate", b"{}").expect("request");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.model_version.as_deref(), Some("9-deadbeef"), "version header relayed");

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

/// A model upload fans out to every ready replica; when all accept, the
/// swap commits and the report lists every replica as swapped.
#[test]
fn model_fanout_commits_when_every_replica_accepts() {
    let a = mock(Behavior::Versioned);
    let b = mock(Behavior::Versioned);
    let (addr, handle, thread) =
        start_balancer(cfg_with_backends(vec![a.addr.clone(), b.addr.clone()]));

    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    let resp = client.request("POST", "/v1/model", b"FAKEBLOB").expect("request");
    assert_eq!(resp.status, 200);
    let body = String::from_utf8(resp.body).expect("utf8");
    assert!(body.contains("\"status\":\"swapped\""), "body: {body}");
    assert!(body.contains("\"model_version\":\"9-deadbeef\""), "body: {body}");
    assert_eq!(body.matches("\"outcome\":\"swapped\"").count(), 2, "body: {body}");
    assert_eq!(a.hits.load(Ordering::SeqCst), 1);
    assert_eq!(b.hits.load(Ordering::SeqCst), 1);
    let stats = get_stats(&addr);
    assert_eq!(stat(&stats, "model_swaps"), 1, "stats: {stats}");

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

/// All-or-nothing: when one replica rejects the bundle, the upload stops
/// there, the replicas that already accepted are rolled back (stopped,
/// absent a previous fleet-wide blob to re-upload), and the client gets a
/// 502 with the per-replica report.
#[test]
fn model_fanout_is_all_or_nothing_when_a_replica_rejects() {
    let ok = mock(Behavior::Versioned);
    let bad = mock(Behavior::Status(400));
    let (addr, handle, thread) =
        start_balancer(cfg_with_backends(vec![ok.addr.clone(), bad.addr.clone()]));

    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    let resp = client.request("POST", "/v1/model", b"FAKEBLOB").expect("request");
    assert_eq!(resp.status, 502, "a partial swap must surface as a gateway error");
    let body = String::from_utf8(resp.body).expect("utf8");
    assert!(body.contains("\"code\":\"swap_rejected\""), "body: {body}");
    assert!(body.contains("\"outcome\":\"rejected (400)\""), "body: {body}");
    assert!(
        body.contains("\"outcome\":\"stopped\""),
        "the accepter must not keep the rejected model: {body}"
    );
    assert_eq!(ok.hits.load(Ordering::SeqCst), 2, "upload, then the rollback shutdown");
    assert_eq!(bad.hits.load(Ordering::SeqCst), 1);
    let stats = get_stats(&addr);
    assert_eq!(stat(&stats, "model_swap_failures"), 1, "stats: {stats}");
    assert_eq!(stat(&stats, "model_swaps"), 0, "stats: {stats}");

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

/// A replica that dies mid-upload: the rejection report is JSON — the
/// failure reason is escaped into the envelope, not spliced in raw.
#[test]
fn model_fanout_rejection_report_is_json_when_a_replica_dies_mid_upload() {
    let ok = mock(Behavior::Status(200));
    let dead = mock(Behavior::CloseBeforeResponse);
    let (addr, handle, thread) =
        start_balancer(cfg_with_backends(vec![ok.addr.clone(), dead.addr.clone()]));

    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    let resp = client.request("POST", "/v1/model", b"FAKEBLOB").expect("request");
    assert_eq!(resp.status, 502);
    let body = String::from_utf8(resp.body).expect("utf8");
    let report = Json::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
    let error = report.get("error").expect("error object");
    assert_eq!(error.get("code").and_then(Json::as_str), Some("swap_rejected"), "{body}");
    assert!(error.get("message").and_then(Json::as_str).is_some(), "{body}");
    let outcomes: Vec<&str> = report
        .get("replicas")
        .and_then(Json::as_array)
        .expect("replicas")
        .iter()
        .map(|r| r.get("outcome").and_then(Json::as_str).expect("outcome"))
        .collect();
    assert_eq!(outcomes, ["stopped", "unreachable"], "{body}");

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

#[test]
fn mid_response_failure_aborts_with_502_after_exactly_one_dispatch() {
    let torn = mock(Behavior::PartialThenClose);
    let live = mock(Behavior::Status(200));
    let (addr, handle, thread) =
        start_balancer(cfg_with_backends(vec![torn.addr.clone(), live.addr.clone()]));

    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    let resp = client.request("POST", "/v1/annotate", b"{}").expect("request");
    assert_eq!(resp.status, 502, "response bytes flowed, so no retry is allowed");
    assert_eq!(torn.hits.load(Ordering::SeqCst), 1, "exactly one dispatch");
    assert_eq!(live.hits.load(Ordering::SeqCst), 0, "never re-dispatched to the healthy replica");

    let stats = get_stats(&addr);
    assert_eq!(stat(&stats, "mid_response_aborts"), 1, "stats: {stats}");
    assert_eq!(stat(&stats, "requests_failed"), 1, "stats: {stats}");

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

/// A chunked replica response cut off mid-body is a mid-response failure:
/// the head already flowed.
#[test]
fn chunked_response_aborts_with_502_after_exactly_one_dispatch() {
    let chunked = mock(Behavior::ChunkedThenClose);
    let live = mock(Behavior::Status(200));
    let (addr, handle, thread) =
        start_balancer(cfg_with_backends(vec![chunked.addr.clone(), live.addr.clone()]));

    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    let resp = client.request("POST", "/v1/annotate", b"{}").expect("request");
    assert_eq!(resp.status, 502, "a chunked head is a started response: no retry");
    assert_eq!(chunked.hits.load(Ordering::SeqCst), 1, "exactly one dispatch");
    assert_eq!(live.hits.load(Ordering::SeqCst), 0, "never re-dispatched to the healthy replica");
    assert_eq!(stat(&get_stats(&addr), "mid_response_aborts"), 1);

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

/// A replica advertising a body far beyond memory is read as its bytes
/// arrive: the balancer survives it, and the torn answer is a mid-response
/// failure like any other.
#[test]
fn huge_content_length_aborts_with_502_after_exactly_one_dispatch() {
    let huge = mock(Behavior::HugeLengthThenClose);
    let live = mock(Behavior::Status(200));
    let (addr, handle, thread) =
        start_balancer(cfg_with_backends(vec![huge.addr.clone(), live.addr.clone()]));

    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    let resp = client.request("POST", "/v1/annotate", b"{}").expect("request");
    assert_eq!(resp.status, 502, "response bytes flowed, so no retry is allowed");
    assert_eq!(huge.hits.load(Ordering::SeqCst), 1, "exactly one dispatch");
    assert_eq!(live.hits.load(Ordering::SeqCst), 0, "never re-dispatched to the healthy replica");
    assert_eq!(stat(&get_stats(&addr), "mid_response_aborts"), 1);

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

/// A replica that answers `connection: close` is never handed a request on
/// the link it closed: the next request dials fresh and costs no retry.
#[test]
fn connection_close_answers_are_not_reused() {
    let closer = mock(Behavior::CloseAfterResponse);
    let (addr, handle, thread) = start_balancer(cfg_with_backends(vec![closer.addr.clone()]));

    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    for i in 0..2 {
        let resp = client.request("POST", "/v1/annotate", b"{}").expect("request");
        assert_eq!(resp.status, 200, "request {i}");
        assert_eq!(resp.body, b"{\"mock\":200}\n");
    }
    assert_eq!(closer.hits.load(Ordering::SeqCst), 2);
    let stats = get_stats(&addr);
    assert_eq!(stat(&stats, "retries"), 0, "stats: {stats}");
    assert_eq!(stat(&stats, "requests_ok"), 2, "stats: {stats}");

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

#[test]
fn complete_4xx_is_forwarded_without_retry() {
    let strict = mock(Behavior::Status(400));
    let live = mock(Behavior::Status(200));
    let (addr, handle, thread) =
        start_balancer(cfg_with_backends(vec![strict.addr.clone(), live.addr.clone()]));

    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    let resp = client.request("POST", "/v1/annotate", b"not json").expect("request");
    assert_eq!(resp.status, 400, "a complete 4xx means the request is bad, not the replica");
    assert_eq!(resp.body, b"{\"mock\":400}\n");
    assert_eq!(strict.hits.load(Ordering::SeqCst), 1);
    assert_eq!(live.hits.load(Ordering::SeqCst), 0, "4xx is never retried");

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

#[test]
fn overload_sheds_with_503_and_retry_after() {
    let live = mock(Behavior::Status(200));
    let cfg = BalanceConfig {
        max_inflight: 0, // every proxied request is over the cap
        ..cfg_with_backends(vec![live.addr.clone()])
    };
    let (addr, handle, thread) = start_balancer(cfg);

    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    let resp = client.request("POST", "/v1/annotate", b"{}").expect("request");
    assert_eq!(resp.status, 503);
    assert_eq!(resp.retry_after, Some(1), "sheds carry a Retry-After hint");
    assert_eq!(live.hits.load(Ordering::SeqCst), 0, "shed requests never reach a replica");

    let stats = get_stats(&addr);
    assert_eq!(stat(&stats, "sheds"), 1, "stats: {stats}");

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

#[test]
fn slow_loris_client_is_cut_off_with_408() {
    let live = mock(Behavior::Status(200));
    let cfg = BalanceConfig {
        request_deadline: Duration::from_millis(300),
        ..cfg_with_backends(vec![live.addr.clone()])
    };
    let (addr, handle, thread) = start_balancer(cfg);

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    stream.write_all(b"POST /annotate HTTP/1.1\r\n").expect("request line");
    // Dribble header bytes slower than the request deadline allows.
    for chunk in ["content-", "length", ": 2", "\r\n", "ho"] {
        std::thread::sleep(Duration::from_millis(120));
        if stream.write_all(chunk.as_bytes()).is_err() {
            break; // balancer already gave up on us — fine
        }
    }
    let mut reply = String::new();
    let mut reader = BufReader::new(&stream);
    reader.read_line(&mut reply).expect("read status line");
    assert!(
        reply.starts_with("HTTP/1.1 408"),
        "slow request must be rejected with 408, got {reply:?}"
    );
    assert_eq!(live.hits.load(Ordering::SeqCst), 0);

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

#[test]
fn local_endpoints_report_health_and_readiness() {
    // No ready replica at all: liveness stays 200, readiness is 503.
    let (addr, handle, thread) = start_balancer(cfg_with_backends(Vec::new()));
    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");

    let resp = client.request("GET", "/v1/healthz", b"").expect("healthz");
    assert_eq!(resp.status, 200, "the balancer itself is alive");
    let body = String::from_utf8(resp.body).expect("utf8");
    assert!(body.contains("\"ready_replicas\":0"), "healthz: {body}");

    let resp = client.request("GET", "/v1/readyz", b"").expect("readyz");
    assert_eq!(resp.status, 503, "nowhere to route traffic");
    assert_eq!(resp.retry_after, Some(1));

    // A route has one name: the unprefixed paths are unknown here too.
    for (method, path) in [("GET", "/healthz"), ("POST", "/annotate")] {
        let resp = client.request(method, path, b"{}").expect("answered");
        assert_eq!(resp.status, 404, "{path}");
        let body = String::from_utf8(resp.body).expect("utf8");
        assert!(body.contains("\"code\":\"not_found\""), "{path}: {body}");
    }

    // Streaming is not proxied.
    let resp = client.request("POST", "/v1/annotate_stream", b"{}").expect("stream");
    assert_eq!(resp.status, 501);

    handle.shutdown();
    thread.join().expect("join").expect("clean run");

    // With a live backend the balancer reports ready.
    let live = mock(Behavior::Status(200));
    let (addr, handle, thread) = start_balancer(cfg_with_backends(vec![live.addr.clone()]));
    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    let resp = client.request("GET", "/v1/readyz", b"").expect("readyz");
    assert_eq!(resp.status, 200);

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

/// Neither an idle balancer front nor an idle mock reactor polls for its
/// stop flag: each sleeps on its sockets and timers, and the stop request
/// from another thread wakes it through its router at once.
#[test]
fn an_idle_balancer_and_reactor_stop_at_once() {
    let live = mock(Behavior::Status(200));
    let (addr, handle, thread) = start_balancer(cfg_with_backends(vec![live.addr.clone()]));
    let mut client =
        Client::connect(&addr.to_string(), Some(Duration::from_secs(5))).expect("connect");
    assert_eq!(client.request("POST", "/v1/annotate", b"{}").expect("answered").status, 200);
    drop(client);
    std::thread::sleep(Duration::from_millis(300));
    let asked = Instant::now();
    handle.shutdown();
    thread.join().expect("join").expect("clean run");
    let took = asked.elapsed();
    assert!(took < Duration::from_millis(50), "the balancer stopped {took:?} after shutdown");

    std::thread::sleep(Duration::from_millis(300));
    let asked = Instant::now();
    drop(live);
    let took = asked.elapsed();
    assert!(took < Duration::from_millis(50), "the mock stopped {took:?} after its stop");
}

/// A replica whose program cannot even be spawned is charged to the restart
/// budget like a crash: it ends `Failed`, and with every replica failed the
/// balancer gives up with an error instead of retrying forever.
#[test]
fn a_replica_that_never_starts_exhausts_the_budget_and_stops_the_balancer() {
    let sup = SupervisorConfig {
        probe_interval: Duration::from_millis(5),
        restart_backoff_base: Duration::from_millis(5),
        restart_backoff_cap: Duration::from_millis(20),
        restart_budget: 3,
        restart_window: Duration::from_secs(60),
        ..SupervisorConfig::new("/nonexistent/doduo-served".into(), 1)
    };
    let cfg = BalanceConfig {
        addr: "127.0.0.1:0".into(),
        supervisor: Some(sup),
        ..BalanceConfig::default()
    };
    let (_addr, handle, thread) = start_balancer(cfg);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(thread.join().expect("join")));
    let ran = rx.recv_timeout(Duration::from_secs(10)).unwrap_or_else(|_| {
        handle.shutdown();
        panic!("balancer still retrying a program that cannot start: {}", handle.stats_json())
    });
    let err = ran.expect_err("every replica failed: run() is an error");
    assert!(err.contains("permanently failed"), "{err}");
    assert_eq!(handle.permanent_failures(), 1);
    let stats = handle.stats_json();
    assert!(stats.contains("\"state\":\"failed\""), "stats: {stats}");
    assert_eq!(handle.total_restarts(), 3, "the budget, spent on spawn attempts: {stats}");
}

/// A replica that installs model uploads: one at a time and ~50 ms each,
/// as the daemon's loader thread does, counting each as it starts,
/// recording the last blob it accepted and rejecting `reject` with a 400.
struct ModelMockDriver {
    listener: TcpListener,
    reject: &'static [u8],
    hits: Arc<AtomicUsize>,
    installed: Arc<std::sync::Mutex<Vec<u8>>>,
}

impl Driver<TcpStream> for ModelMockDriver {
    type Stream = NoStream;

    fn accept(&self) -> std::io::Result<Option<TcpStream>> {
        match self.listener.accept() {
            Ok((stream, _)) => Ok(Some(stream)),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn dispatch(&self, _ticket: Ticket, req: HttpRequest, _prior: u64) -> Dispatch {
        self.hits.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(50));
        Dispatch::Respond(if req.path != "/v1/model" || req.body == self.reject {
            HttpResponse::json(400, "{\"mock\":400}\n")
        } else {
            *self.installed.lock().expect("installed lock") = req.body;
            HttpResponse::json(200, "{\"mock\":200}\n")
        })
    }
}

/// A [`ModelMockDriver`] on its own reactor thread, and the blob it holds.
fn model_mock(reject: &'static [u8]) -> (Mock, Arc<std::sync::Mutex<Vec<u8>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind mock");
    let hits = Arc::new(AtomicUsize::new(0));
    let installed = Arc::new(std::sync::Mutex::new(Vec::new()));
    let (counter, held) = (Arc::clone(&hits), Arc::clone(&installed));
    let driver =
        move |listener| ModelMockDriver { listener, reject, hits: counter, installed: held };
    (Mock::serve(listener, driver, hits), installed)
}

/// Two uploads at once: with the fleet committed to P, upload A (which
/// replica 2 rejects) and, once A has reached replica 0, upload B. Had both
/// fan-outs run — A's rollback re-installing P on replicas 0 and 1 after B
/// reached them, while B commits — the fleet would serve P, P, B under a
/// balancer that reports B. The upload that finds the fleet model held is refused
/// with `503 swap_in_progress` instead, and every replica ends on the model
/// the answers report committed.
#[test]
fn concurrent_model_uploads_leave_every_replica_on_the_committed_model() {
    let replicas = [model_mock(b""), model_mock(b""), model_mock(b"A")];
    let backends = replicas.iter().map(|(m, _)| m.addr.clone()).collect();
    let (addr, handle, thread) = start_balancer(cfg_with_backends(backends));
    let upload = |blob: &[u8]| {
        let mut client =
            Client::connect(&addr.to_string(), Some(Duration::from_secs(10))).expect("connect");
        client.request("POST", "/v1/model", blob).expect("upload answered")
    };
    assert_eq!(upload(b"P").status, 200, "P commits on every replica");

    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| upload(b"A"));
        while replicas[0].0.hits.load(Ordering::SeqCst) < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let b = s.spawn(|| upload(b"B"));
        (a.join().expect("upload A"), b.join().expect("upload B"))
    });
    assert!(matches!(a.status, 502 | 503), "A is rolled back or refused: {}", a.status);
    assert!(matches!(b.status, 200 | 503), "B commits or is refused: {}", b.status);
    for refused in [&a, &b].into_iter().filter(|r| r.status == 503) {
        let body = String::from_utf8_lossy(&refused.body);
        assert!(body.contains("\"code\":\"swap_in_progress\""), "{body}");
        assert_eq!(refused.retry_after, Some(1), "{body}");
    }
    let committed: &[u8] = if b.status == 200 { b"B" } else { b"P" };
    for (id, (_, installed)) in replicas.iter().enumerate() {
        let holds = installed.lock().expect("installed lock").clone();
        assert_eq!(
            String::from_utf8_lossy(&holds),
            String::from_utf8_lossy(committed),
            "replica {id} (A: {}, B: {})",
            a.status,
            b.status
        );
    }

    handle.shutdown();
    thread.join().expect("join").expect("clean run");
}

/// A flag the balancer no longer has (here a deleted replica pass-through)
/// is a usage error: exit 2 naming it, before any replica is spawned.
#[test]
fn a_deleted_flag_stops_the_balancer_before_it_spawns_a_replica() {
    let dir = std::env::temp_dir().join(format!("doduo-failover-{}-flag", std::process::id()));
    std::fs::create_dir_all(&dir).expect("port dir");
    let port_file = dir.join("front.port");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_doduo-balance"))
        .args(["--synthetic", "quick", "--addr", "127.0.0.1:0", "--max-batch", "8"])
        .args(["--replicas", "1", "--port-dir"])
        .arg(&dir)
        .arg("--port-file")
        .arg(&port_file)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn doduo-balance");
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() >= deadline {
            // A balancer that took the flag is serving: stop it through its
            // front so its replica is stopped too, then make sure.
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                if let Ok(mut c) = Client::connect(addr.trim(), Some(Duration::from_secs(2))) {
                    let _ = c.request("POST", "/v1/shutdown", b"");
                }
            }
            let stop = Instant::now() + Duration::from_secs(10);
            while child.try_wait().expect("try_wait").is_none() && Instant::now() < stop {
                std::thread::sleep(Duration::from_millis(50));
            }
            let _ = child.kill();
            let _ = child.wait();
            panic!("doduo-balance took --max-batch and kept running");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().expect("piped"), &mut stderr)
        .expect("stderr");
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument --max-batch"), "{stderr}");
    assert!(!dir.join("replica-0.port").exists(), "no replica was spawned");
    let _ = std::fs::remove_dir_all(&dir);
}
