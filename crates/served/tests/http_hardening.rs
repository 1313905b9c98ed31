//! Adversarial tests for the daemon's hand-rolled HTTP stack, over raw TCP
//! sockets: malformed request lines, oversized heads/bodies, premature
//! EOF, byte-at-a-time split writes, pipelining, wrong `Content-Length`,
//! and bad chunked framing. Error-class requests must get the right status
//! (400/413), and a poisoned connection must never wedge the daemon —
//! after any of these, a well-formed request is still answered promptly.
//! The same for `/v1/annotate_stream`, whose errors are in-band once the
//! `200` head is out, and whose open sessions must cost the daemon a
//! connection slot and nothing else.

use doduo_served::bootstrap::{synthetic_world, SyntheticWorld};
use doduo_served::http::Client;
use doduo_served::json::{annotations_response, table_to_json, Json};
use doduo_served::{BatchPolicy, ServeConfig, Server, ServerHandle};
use doduo_table::Table;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Short timeouts, so wedged-connection bugs surface as test timeouts
/// quickly.
fn hardened_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        policy: BatchPolicy::default(),
        request_deadline: Duration::from_secs(2),
        ..ServeConfig::default()
    }
}

struct ShutdownOnDrop(ServerHandle);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Runs `body` against a fresh server.
fn with_server(world: &SyntheticWorld, body: impl FnOnce(&str) + Send) {
    with_server_cfg(world, hardened_config(), body);
}

/// Raw connection: write whatever bytes, read whatever comes back.
fn raw(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    s.set_nodelay(true).expect("nodelay");
    s
}

/// Reads until EOF or read timeout; returns everything received.
fn read_all(s: &mut TcpStream) -> String {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Asserts the daemon still answers a good request quickly — the "nothing
/// is wedged" check used after every poisoning scenario.
fn assert_still_serving(addr: &str) {
    let mut c = Client::connect(addr, Some(Duration::from_secs(5))).expect("connect");
    let r = c.request("GET", "/v1/healthz", b"").expect("healthz answered");
    assert_eq!(r.status, 200, "daemon must still serve after adversarial input");
}

#[test]
fn malformed_request_lines_get_400() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        for bad in [
            "GARBAGE\r\n\r\n",
            "GET\r\n\r\n",
            "GET /v1/healthz\r\n\r\n",          // missing version
            "GET /v1/healthz SMTP/1.0\r\n\r\n", // wrong protocol
            "\r\nGET /v1/healthz HTTP/1.1\r\n\r\n",
        ] {
            let mut s = raw(addr);
            s.write_all(bad.as_bytes()).expect("write");
            let resp = read_all(&mut s);
            assert!(resp.starts_with("HTTP/1.1 400"), "{bad:?} => {resp:?}");
            assert!(
                resp.contains("\"error\"") && resp.contains("\"code\":\"bad_request\""),
                "400 carries the error envelope: {resp:?}"
            );
        }
        assert_still_serving(addr);
    });
}

#[test]
fn malformed_headers_get_400() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        for bad in [
            "GET /v1/healthz HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "POST /v1/annotate HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
            "POST /v1/annotate HTTP/1.1\r\ntransfer-encoding: gzip\r\n\r\n",
            "POST /v1/annotate HTTP/1.1\r\nexpect: 200-maybe\r\n\r\n",
        ] {
            let mut s = raw(addr);
            s.write_all(bad.as_bytes()).expect("write");
            let resp = read_all(&mut s);
            assert!(resp.starts_with("HTTP/1.1 400"), "{bad:?} => {resp:?}");
        }
        assert_still_serving(addr);
    });
}

#[test]
fn oversized_head_gets_413_without_unbounded_buffering() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        // One endless header line, no newline: the incremental cap must cut
        // it off at MAX_HEAD_BYTES, not buffer until the writer stops.
        let mut s = raw(addr);
        s.write_all(b"GET /v1/healthz HTTP/1.1\r\nx-junk: ").expect("write");
        let junk = vec![b'a'; 64 * 1024];
        let _ = s.write_all(&junk); // may fail once the server answers+closes
        let resp = read_all(&mut s);
        assert!(resp.starts_with("HTTP/1.1 413"), "got {resp:?}");
        assert!(
            resp.contains("\"code\":\"payload_too_large\""),
            "413 carries the error envelope: {resp:?}"
        );

        // Many well-formed headers adding past the cap: same outcome.
        let mut s = raw(addr);
        s.write_all(b"GET /v1/healthz HTTP/1.1\r\n").expect("write");
        for i in 0..300 {
            if s.write_all(format!("x-h{i}: {}\r\n", "v".repeat(100)).as_bytes()).is_err() {
                break;
            }
        }
        let resp = read_all(&mut s);
        assert!(resp.starts_with("HTTP/1.1 413"), "got {resp:?}");
        assert_still_serving(addr);
    });
}

#[test]
fn oversized_body_gets_413_before_upload() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let mut s = raw(addr);
        // Declared 9 MB: rejected from the declaration alone, no body sent.
        s.write_all(b"POST /v1/annotate HTTP/1.1\r\ncontent-length: 9437184\r\n\r\n")
            .expect("write");
        let resp = read_all(&mut s);
        assert!(resp.starts_with("HTTP/1.1 413"), "got {resp:?}");
        assert_still_serving(addr);
    });
}

#[test]
fn premature_eof_mid_body_never_wedges() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let mut s = raw(addr);
        s.write_all(b"POST /v1/annotate HTTP/1.1\r\ncontent-length: 100\r\n\r\n{\"colu")
            .expect("write");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        // The server cannot answer a request it never fully received; it
        // must just close. Reading drains to EOF without a 200.
        let resp = read_all(&mut s);
        assert!(!resp.contains("200 OK"), "truncated request must not succeed: {resp:?}");
        assert_still_serving(addr);
    });
}

#[test]
fn byte_at_a_time_request_still_parses() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let t = &world.tables[0];
        let body = table_to_json(t);
        let req = format!(
            "POST /v1/annotate HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
            body.len(),
            body
        );
        let mut s = raw(addr);
        for b in req.as_bytes() {
            s.write_all(std::slice::from_ref(b)).expect("write one byte");
            s.flush().expect("flush");
        }
        let resp = read_all(&mut s);
        assert!(resp.starts_with("HTTP/1.1 200"), "split writes must still parse: {resp:?}");
        assert!(resp.contains("\"types\""), "got a real annotation body");
    });
}

#[test]
fn pipelined_requests_are_all_answered() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let mut s = raw(addr);
        // Three requests in one write; the last closes the connection so
        // read_all terminates deterministically.
        s.write_all(
            b"GET /v1/healthz HTTP/1.1\r\n\r\nGET /v1/healthz HTTP/1.1\r\n\r\nGET /v1/healthz \
              HTTP/1.1\r\nconnection: close\r\n\r\n",
        )
        .expect("write");
        let resp = read_all(&mut s);
        let answers = resp.matches("HTTP/1.1 200").count();
        assert_eq!(answers, 3, "all pipelined requests answered: {resp:?}");
    });
}

#[test]
fn wrong_content_length_poisons_only_its_connection() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        // Declared length smaller than the JSON actually sent: the request
        // parses a truncated body (400), and the trailing bytes must not be
        // misread as a second valid request.
        let body = b"{\"columns\": [[\"a\"]]}";
        let mut s = raw(addr);
        s.write_all(b"POST /v1/annotate HTTP/1.1\r\ncontent-length: 5\r\n\r\n").expect("write");
        s.write_all(body).expect("write");
        let resp = read_all(&mut s);
        assert!(resp.starts_with("HTTP/1.1 400"), "truncated JSON is a 400: {resp:?}");
        assert_eq!(resp.matches("HTTP/1.1").count(), 1, "error closes the connection");
        assert_still_serving(addr);
    });
}

#[test]
fn conflicting_body_framings_get_400() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        // Content-Length alongside Transfer-Encoding (in either order) is
        // the classic request-smuggling vector: peers that resolve the
        // conflict differently disagree on where the body ends. The daemon
        // refuses to resolve it at all.
        for bad in [
            "POST /v1/annotate HTTP/1.1\r\ntransfer-encoding: chunked\r\ncontent-length: \
             5\r\n\r\n0\r\n\r\n",
            "POST /v1/annotate HTTP/1.1\r\ncontent-length: 5\r\ntransfer-encoding: \
             chunked\r\n\r\n0\r\n\r\n",
        ] {
            let mut s = raw(addr);
            s.write_all(bad.as_bytes()).expect("write");
            let resp = read_all(&mut s);
            assert!(resp.starts_with("HTTP/1.1 400"), "{bad:?} => {resp:?}");
        }
        // Duplicate Content-Length is the same smuggling class.
        let mut s = raw(addr);
        s.write_all(
            b"POST /v1/annotate HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 500\r\n\r\nhello",
        )
        .expect("write");
        let resp = read_all(&mut s);
        assert!(resp.starts_with("HTTP/1.1 400"), "duplicate content-length: {resp:?}");
        assert_still_serving(addr);
    });
}

#[test]
fn bad_chunked_framing_gets_400() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let mut s = raw(addr);
        s.write_all(b"POST /v1/annotate HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n")
            .expect("write");
        let resp = read_all(&mut s);
        assert!(resp.starts_with("HTTP/1.1 400"), "bad chunk size is a 400: {resp:?}");
        assert_still_serving(addr);
    });
}

#[test]
fn signed_framing_numbers_get_400() {
    // A framing number is digits and nothing else (`1*DIGIT`, `1*HEXDIG`).
    // Rust's integer parsers also take a leading `+`, and a peer that reads
    // `+5` differently would disagree on where the body ends — so a valid
    // table behind a signed `Content-Length` or chunk size is refused.
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let body = table_to_json(&world.tables[0]);
        for bad in [
            format!("POST /v1/annotate HTTP/1.1\r\ncontent-length: +{}\r\n\r\n{body}", body.len()),
            format!(
                "POST /v1/annotate HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n+{:x}\r\n{body}\
                 \r\n0\r\n\r\n",
                body.len()
            ),
        ] {
            let mut s = raw(addr);
            s.write_all(bad.as_bytes()).expect("write");
            let resp = read_all(&mut s);
            assert!(resp.starts_with("HTTP/1.1 400"), "{bad:?} => {resp:?}");
        }
        assert_still_serving(addr);
    });
}

#[test]
fn chunked_annotate_body_is_byte_identical() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let t = &world.tables[1];
        let body = table_to_json(t);
        let mut s = raw(addr);
        s.write_all(
            b"POST /v1/annotate HTTP/1.1\r\ntransfer-encoding: chunked\r\nconnection: \
                      close\r\n\r\n",
        )
        .expect("write");
        // Upload in two chunks split mid-document.
        let (a, b) = body.as_bytes().split_at(body.len() / 2);
        for piece in [a, b] {
            s.write_all(format!("{:x}\r\n", piece.len()).as_bytes()).expect("size");
            s.write_all(piece).expect("data");
            s.write_all(b"\r\n").expect("crlf");
        }
        s.write_all(b"0\r\n\r\n").expect("last chunk");
        let resp = read_all(&mut s);
        assert!(resp.starts_with("HTTP/1.1 200"), "chunked /annotate works: {resp:?}");
        let offline = {
            let ann = world.annotator().annotate(t);
            doduo_served::json::annotations_response(&[ann], false)
        };
        let payload = resp.split("\r\n\r\n").nth(1).expect("body present");
        assert_eq!(payload.as_bytes(), offline.as_bytes(), "byte-identical to offline");
    });
}

#[test]
fn poisoned_connections_never_wedge_the_daemon() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        // Several slow/partial connections, all holding a half-sent
        // request head open.
        let mut poison = Vec::new();
        for _ in 0..4 {
            let mut s = raw(addr);
            s.write_all(b"POST /v1/annotate HTTP/1.1\r\ncontent-len").expect("write partial");
            poison.push(s); // keep sockets open
        }
        // A well-formed request must still be answered promptly: a stalled
        // read holds only its own connection slot.
        let start = std::time::Instant::now();
        assert_still_serving(addr);
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "good request waited {:?} behind poisoned connections",
            start.elapsed()
        );
        drop(poison);
    });
}

// ---------------------------------------------------------------------------
// Error-path audit pins and chaos-injection behavior (replicated serving).
// ---------------------------------------------------------------------------

/// Runs the server with a caller-supplied config (the chaos and
/// connection-cap tests below need non-default configs).
fn with_server_cfg<R>(
    world: &SyntheticWorld,
    cfg: ServeConfig,
    body: impl FnOnce(&str) -> R + Send,
) -> R {
    let server = Server::bind(cfg).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(server.handle());
        let runner = scope.spawn(|| server.run(world.bundle.clone()));
        let out = body(&addr);
        drop(guard);
        runner.join().expect("server thread exits cleanly");
        out
    })
}

/// Audit pin: an empty `tables` array and a table with zero columns are
/// request errors (400 + clean close), not panics.
#[test]
fn empty_tables_and_empty_columns_get_400() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        for body in ["{\"tables\": []}", "{\"id\": \"t\", \"columns\": []}"] {
            let mut c = Client::connect(addr, Some(Duration::from_secs(5))).expect("connect");
            let r = c.request("POST", "/v1/annotate", body.as_bytes()).expect("answered");
            assert_eq!(r.status, 400, "body {body:?} must be a request error");
        }
        assert_still_serving(addr);
    });
}

/// Audit pin: pathologically nested JSON trips the parser's depth bound
/// (400), never a recursion stack overflow (which would abort the process).
#[test]
fn deeply_nested_json_gets_400_not_a_stack_overflow() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let mut body = String::from("{\"tables\": ");
        body.push_str(&"[".repeat(4096));
        body.push_str(&"]".repeat(4096));
        body.push('}');
        let mut c = Client::connect(addr, Some(Duration::from_secs(5))).expect("connect");
        let r = c.request("POST", "/v1/annotate", body.as_bytes()).expect("answered");
        assert_eq!(r.status, 400, "deep nesting must hit the depth bound");
        assert_still_serving(addr);
    });
}

/// The liveness/readiness split: `/healthz` reports `ready: true` once the
/// engine is up, and `/readyz` answers 200 on a serving daemon.
#[test]
fn readyz_and_healthz_report_readiness() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let mut c = Client::connect(addr, Some(Duration::from_secs(5))).expect("connect");
        let h = c.request("GET", "/v1/healthz", b"").expect("healthz");
        assert_eq!(h.status, 200);
        let body = String::from_utf8(h.body).expect("utf8");
        assert!(body.contains("\"ready\":true"), "{body}");
        let r = c.request("GET", "/v1/readyz", b"").expect("readyz");
        assert_eq!(r.status, 200);
    });
}

/// Unknown routes — versioned or not — answer `404` with the standard
/// error envelope: near-miss prefixes (`/v1x/...`) are not silently treated
/// as `/v1/`, and a route has no unprefixed second name.
#[test]
fn unknown_routes_get_404_with_envelope() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let mut c = Client::connect(addr, Some(Duration::from_secs(5))).expect("connect");
        let table = table_to_json(&world.tables[0]);
        for (method, path, body) in [
            ("GET", "/nope", ""),
            ("GET", "/v1/nope", ""),
            ("GET", "/v1x/healthz", ""),
            ("GET", "/v1healthz", ""),
            ("GET", "/healthz", ""),
            ("POST", "/annotate", table.as_str()),
        ] {
            let r = c.request(method, path, body.as_bytes()).expect("answered");
            assert_eq!(r.status, 404, "{path}");
            let body = String::from_utf8(r.body).expect("utf8");
            assert!(
                body.contains("\"error\"") && body.contains("\"code\":\"not_found\""),
                "{path}: {body}"
            );
        }
        assert_still_serving(addr);
    });
}

/// The connection-cap 503 is a *backpressure* signal, so it must carry a
/// `Retry-After` hint for well-behaved clients (and the balancer).
#[test]
fn connection_cap_503_carries_retry_after() {
    let world = synthetic_world(true, 42);
    let cfg = ServeConfig { max_connections: 1, ..hardened_config() };
    with_server_cfg(&world, cfg, |addr| {
        let _held = raw(addr); // occupies the only connection slot
        std::thread::sleep(Duration::from_millis(100)); // let it be admitted
        let mut turned_away = raw(addr);
        let resp = read_all(&mut turned_away);
        assert!(resp.starts_with("HTTP/1.1 503"), "over-cap connection: {resp:?}");
        let lower = resp.to_ascii_lowercase();
        assert!(lower.contains("retry-after:"), "503 must carry Retry-After: {resp:?}");
        assert!(
            resp.contains("\"code\":\"overloaded\"") && resp.contains("\"retry_after_ms\""),
            "503 carries the backpressure envelope: {resp:?}"
        );
    });
}

/// Chaos reset faults sever the connection after a *partial* response (the
/// head advertises the full length), and the daemon keeps serving — this is
/// the replica-side half of the balancer's mid-response abort tests.
#[test]
fn chaos_reset_sends_a_torn_response_and_the_daemon_survives() {
    let world = synthetic_world(true, 42);
    let chaos = doduo_served::chaos::ChaosConfig::parse("reset_prob=1.0,seed=3").expect("spec");
    let cfg = ServeConfig { chaos: Some(chaos), ..hardened_config() };
    with_server_cfg(&world, cfg, |addr| {
        let t = &world.tables[0];
        let body = table_to_json(t);
        let mut s = raw(addr);
        s.write_all(
            format!(
                "POST /v1/annotate HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("write request");
        let resp = read_all(&mut s); // ends at the chaos-severed EOF
        assert!(resp.starts_with("HTTP/1.1 200"), "torn response still starts cleanly: {resp:?}");
        let advertised: usize = resp
            .lines()
            .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(String::from))
            .and_then(|v| v.trim().parse().ok())
            .expect("content-length advertised");
        let received = resp.split("\r\n\r\n").nth(1).map_or(0, str::len);
        assert!(
            received < advertised,
            "the body must be torn: got {received} of {advertised} bytes"
        );
        // The fault is per-connection: the daemon is still healthy.
        assert_still_serving(addr);
    });

    // One draw per request, in arrival order: two daemons with one seed,
    // fed the same 16 requests one after another, tear the same ones.
    let torn_positions = || {
        let chaos = doduo_served::chaos::ChaosConfig::parse("reset_prob=0.5,seed=9").expect("spec");
        let cfg = ServeConfig { chaos: Some(chaos), ..hardened_config() };
        with_server_cfg(&world, cfg, |addr| {
            let torn = |i: usize| {
                let body = table_to_json(&world.tables[i]);
                let mut c = Client::connect(addr, Some(Duration::from_secs(5))).expect("connect");
                c.request("POST", "/v1/annotate", body.as_bytes()).is_err()
            };
            (0..16).map(torn).collect::<Vec<bool>>()
        })
    };
    let first = torn_positions();
    assert_eq!(first, torn_positions(), "same seed, same arrival order, same faults");
    assert!(first.contains(&true) && first.contains(&false), "{first:?}");
}

/// Chaos delay faults hold the response back without corrupting it: the
/// request takes at least the configured delay and the bytes stay
/// byte-identical to offline annotation.
#[test]
fn chaos_delay_postpones_but_never_corrupts() {
    let world = synthetic_world(true, 42);
    let chaos = doduo_served::chaos::ChaosConfig::parse("delay_ms=300,seed=4").expect("spec");
    let cfg = ServeConfig { chaos: Some(chaos), ..hardened_config() };
    with_server_cfg(&world, cfg, |addr| {
        let t = &world.tables[0];
        let offline = {
            let ann = world.annotator().annotate(t);
            doduo_served::json::annotations_response(&[ann], false)
        };
        let mut c = Client::connect(addr, Some(Duration::from_secs(10))).expect("connect");
        let start = std::time::Instant::now();
        let r = c.request("POST", "/v1/annotate", table_to_json(t).as_bytes()).expect("annotate");
        assert!(
            start.elapsed() >= Duration::from_millis(300),
            "delay fault must hold the response, elapsed {:?}",
            start.elapsed()
        );
        assert_eq!(r.status, 200);
        assert_eq!(r.body, offline.as_bytes(), "delayed response must stay byte-identical");
    });
}

// ---------------------------------------------------------------------------
// `/v1/annotate_stream` over raw sockets.
// ---------------------------------------------------------------------------

const STREAM_HEAD: &str = "POST /v1/annotate_stream HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";

/// One table as a stream document (and, annotated, as the offline bytes of
/// its result line).
fn doc(t: &Table) -> String {
    format!("{}\n", table_to_json(t))
}

fn offline_line(world: &SyntheticWorld, t: &Table) -> String {
    annotations_response(&[world.annotator().annotate(t)], false)
}

fn chunk(data: &str) -> String {
    format!("{:x}\r\n{data}\r\n", data.len())
}

/// Splits a raw chunked response into its status line and dechunked body
/// lines; panics unless the terminating chunk is the last thing in it.
fn stream_lines(resp: &str) -> (String, Vec<String>) {
    let (head, mut rest) = resp.split_once("\r\n\r\n").expect("response head");
    assert!(head.to_ascii_lowercase().contains("transfer-encoding: chunked"), "{head}");
    let mut body = String::new();
    loop {
        let (size, after) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size, 16).expect("hex chunk size");
        if size == 0 {
            assert_eq!(after, "\r\n", "nothing follows the terminating chunk");
            break;
        }
        body.push_str(&after[..size]);
        rest = after[size..].strip_prefix("\r\n").expect("CRLF after chunk data");
    }
    let status = head.lines().next().expect("status line").to_string();
    (status, body.split_inclusive('\n').map(String::from).collect())
}

fn stats(addr: &str) -> Json {
    let mut c = Client::connect(addr, Some(Duration::from_secs(5))).expect("connect");
    let r = c.request("GET", "/v1/stats", b"").expect("stats");
    Json::parse(std::str::from_utf8(&r.body).expect("utf8").trim()).expect("stats JSON")
}

fn stat(stats: &Json, path: &[&str]) -> f64 {
    path.iter().fold(stats, |v, k| v.get(k).expect("stats key")).as_f64().expect("number")
}

/// Open, idle streams hold connections and nothing else: beside three of
/// them, a new stream and a `/v1/stats` request are both answered at once.
#[test]
fn idle_streams_delay_neither_a_new_stream_nor_stats() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let second = Duration::from_secs(1);
        let idle: Vec<Client> = (0..3)
            .map(|_| {
                let mut c = Client::connect(addr, Some(second)).expect("connect");
                c.stream_open("/v1/annotate_stream").expect("open");
                assert_eq!(c.stream_status().expect("head of an idle stream"), 200);
                c
            })
            .collect();

        let t = &world.tables[0];
        let start = Instant::now();
        let mut fourth = Client::connect(addr, Some(second)).expect("connect");
        fourth.stream_open("/v1/annotate_stream").expect("open");
        assert_eq!(fourth.stream_status().expect("the fourth stream's head"), 200);
        fourth.stream_send(doc(t).as_bytes()).expect("send");
        let line = fourth.stream_next_line().expect("first line").expect("a result");
        assert_eq!(line, offline_line(&world, t));
        assert!(start.elapsed() < second, "fourth stream waited {:?}", start.elapsed());

        let start = Instant::now();
        let mut c = Client::connect(addr, Some(second)).expect("connect");
        let r = c.request("GET", "/v1/stats", b"").expect("stats answered");
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
        assert!(start.elapsed() < second, "stats waited {:?}", start.elapsed());
        drop(idle);
    });
}

/// A client that resets mid-stream still shows up in `/v1/stats`, with the
/// tables it was sent.
#[test]
fn a_broken_stream_is_still_counted() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let before = stats(addr);
        let mut s = raw(addr);
        let mut upload = STREAM_HEAD.to_string();
        for t in world.tables.iter().take(40) {
            upload.push_str(&chunk(&doc(t)));
        }
        s.write_all(upload.as_bytes()).expect("upload");
        // Read into the first result line, then drop the socket with the
        // rest unread: the daemon's next write or read fails.
        let mut seen = Vec::new();
        let mut buf = [0u8; 64];
        while !seen.windows(9).any(|w| w == b"\"types\":[") {
            let n = s.read(&mut buf).expect("response bytes");
            assert!(n > 0, "stream ended early: {}", String::from_utf8_lossy(&seen));
            seen.extend_from_slice(&buf[..n]);
        }
        drop(s);

        let delta = |now: &Json, path: &[&str]| stat(now, path) - stat(&before, path);
        let deadline = Instant::now() + Duration::from_secs(2);
        let now = loop {
            let now = stats(addr);
            if delta(&now, &["streams", "failed"]) == 1.0 {
                break now;
            }
            assert!(Instant::now() < deadline, "the broken stream was never recorded");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(delta(&now, &["requests_failed"]), 1.0);
        assert_eq!(delta(&now, &["streams", "ok"]), 0.0);
        let emitted = delta(&now, &["streams", "tables"]);
        assert!((1.0..=40.0).contains(&emitted), "emitted {emitted}");
        assert_eq!(delta(&now, &["tables"]), emitted);
        let submitted = delta(&now, &["sequences"]);
        assert!((emitted..=40.0).contains(&submitted), "submitted {submitted}");
        assert!(delta(&now, &["tokens"]) >= submitted);
    });
}

#[test]
fn stream_without_framing_gets_400_and_the_connection_stays_usable() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let mut s = raw(addr);
        s.write_all(b"POST /v1/annotate_stream HTTP/1.1\r\n\r\n").expect("write");
        let mut resp = Vec::new();
        let mut buf = [0u8; 1024];
        while !resp.ends_with(b"}}\n") {
            let n = s.read(&mut buf).expect("400 answered");
            assert!(n > 0, "closed before the envelope: {}", String::from_utf8_lossy(&resp));
            resp.extend_from_slice(&buf[..n]);
        }
        let resp = String::from_utf8_lossy(&resp).into_owned();
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp:?}");
        assert!(resp.contains("\"code\":\"bad_request\"") && resp.contains("chunked"), "{resp:?}");
        assert!(resp.contains("connection: keep-alive"), "{resp:?}");
        // Same socket, next request.
        s.write_all(b"GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n").expect("write");
        let resp = read_all(&mut s);
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp:?}");
    });
}

#[test]
fn stream_bad_chunk_size_after_two_tables_gets_both_results_then_the_error() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let (a, b) = (&world.tables[0], &world.tables[1]);
        let mut s = raw(addr);
        let upload = format!("{STREAM_HEAD}{}{}zz\r\n", chunk(&doc(a)), chunk(&doc(b)));
        s.write_all(upload.as_bytes()).expect("write");
        let (status, lines) = stream_lines(&read_all(&mut s));
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert_eq!(lines[0], offline_line(&world, a));
        assert_eq!(lines[1], offline_line(&world, b));
        assert!(lines[2].contains("\"code\":\"stream_error\""), "{}", lines[2]);
        assert!(lines[2].contains("bad chunk size"), "{}", lines[2]);
        assert_still_serving(addr);
    });
}

#[test]
fn stream_fin_mid_document_reports_a_truncated_table() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let (a, b) = (&world.tables[0], &world.tables[1]);
        let half = doc(b);
        let mut s = raw(addr);
        let upload = format!("{STREAM_HEAD}{}{}", chunk(&doc(a)), chunk(&half[..half.len() / 2]));
        s.write_all(upload.as_bytes()).expect("write");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        let (_, lines) = stream_lines(&read_all(&mut s));
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(lines[0], offline_line(&world, a));
        assert!(lines[1].contains("stream ended mid-table"), "{}", lines[1]);
    });
}

#[test]
fn content_length_framed_stream_matches_offline() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let tables: Vec<&Table> = world.tables.iter().take(3).collect();
        let body: String = tables.iter().map(|t| doc(t)).collect();
        let mut s = raw(addr);
        let upload = format!(
            "POST /v1/annotate_stream HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        s.write_all(upload.as_bytes()).expect("write");
        let (status, lines) = stream_lines(&read_all(&mut s));
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        let want: Vec<String> = tables.iter().map(|t| offline_line(&world, t)).collect();
        assert_eq!(lines, want, "one offline-identical line per table, no error object");
    });
}

#[test]
fn byte_at_a_time_stream_still_parses() {
    let world = synthetic_world(true, 42);
    with_server(&world, |addr| {
        let (a, b) = (&world.tables[0], &world.tables[1]);
        let upload = format!("{STREAM_HEAD}{}{}0\r\n\r\n", chunk(&doc(a)), chunk(&doc(b)));
        let mut s = raw(addr);
        for byte in upload.as_bytes() {
            s.write_all(std::slice::from_ref(byte)).expect("write one byte");
        }
        let (_, lines) = stream_lines(&read_all(&mut s));
        assert_eq!(lines, [offline_line(&world, a), offline_line(&world, b)]);
    });
}

/// A flush flag the daemon no longer has is a usage error: exit 2 naming
/// it, before any model is built or port bound.
#[test]
fn a_deleted_flush_flag_is_an_unknown_argument() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_doduo-served"))
        .args(["--synthetic", "quick", "--addr", "127.0.0.1:0", "--max-delay-ms", "5"])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn doduo-served");
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("doduo-served took --max-delay-ms and kept running");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child.stderr.take().expect("piped").read_to_string(&mut stderr).expect("stderr");
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument --max-delay-ms"), "{stderr}");
}
