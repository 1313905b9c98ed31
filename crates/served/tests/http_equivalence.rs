//! End-to-end daemon tests over real TCP sockets: responses must be
//! *byte*-identical to the offline annotation path at every concurrency
//! level and batching policy, and shutdown must be graceful (in-flight and
//! queued requests answered, `run()` returns).

use doduo_serve::BatchConfig;
use doduo_served::bootstrap::{synthetic_world, SyntheticWorld};
use doduo_served::http::Client;
use doduo_served::json::{annotations_response, table_to_json, Json};
use doduo_served::{BatchPolicy, ServeConfig, Server};
use doduo_table::Table;
use std::time::Duration;

/// The offline reference bytes for one table: per-table `annotate` through
/// the same response encoder the daemon uses. Also exactly one line of an
/// `/v1/annotate_stream` response for the same table.
fn offline_bytes(world: &SyntheticWorld, t: &Table) -> Vec<u8> {
    let ann = world.annotator().annotate(t);
    annotations_response(&[ann], false).into_bytes()
}

fn test_config(policy: BatchPolicy) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        policy,
        engine: BatchConfig { threads: 2, ..BatchConfig::default() },
        ..ServeConfig::default()
    }
}

/// Requests shutdown when dropped, so an assertion failure inside the test
/// body unwinds into a stopping server instead of deadlocking the scope's
/// implicit join.
struct ShutdownOnDrop(doduo_served::ServerHandle);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

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

fn with_server<R>(
    world: &SyntheticWorld,
    policy: BatchPolicy,
    body: impl FnOnce(&str) -> R + Send,
) -> R {
    with_server_cfg(world, test_config(policy), body)
}

#[test]
fn healthz_stats_and_errors() {
    let world = synthetic_world(true, 42);
    with_server(&world, BatchPolicy::default(), |addr| {
        let mut c = Client::connect(addr, Some(Duration::from_secs(10))).expect("connect");
        let health = c.request("GET", "/v1/healthz", b"").expect("healthz");
        assert_eq!(health.status, 200);
        let v = Json::parse(std::str::from_utf8(&health.body).unwrap().trim()).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));

        // Malformed JSON → 400 (connection closes after an error).
        let mut c2 = Client::connect(addr, Some(Duration::from_secs(10))).expect("connect");
        let bad = c2.request("POST", "/v1/annotate", b"{not json").expect("bad body answered");
        assert_eq!(bad.status, 400);

        // Unknown route → 404; keep-alive survives it.
        let notfound = c.request("GET", "/nope", b"").expect("404 answered");
        assert_eq!(notfound.status, 404);

        // A valid single-table request on the same connection, then stats.
        let t = &world.tables[0];
        let ok = c.request("POST", "/v1/annotate", table_to_json(t).as_bytes()).expect("annotate");
        assert_eq!(ok.status, 200);
        let stats = c.request("GET", "/v1/stats", b"").expect("stats");
        assert_eq!(stats.status, 200);
        let s = Json::parse(std::str::from_utf8(&stats.body).unwrap().trim()).unwrap();
        assert_eq!(s.get("requests_ok").and_then(Json::as_f64), Some(1.0));
        assert!(s.get("latency_ms").unwrap().get("p50").unwrap().as_f64().unwrap() > 0.0);
        let flushes = s.get("flushes").unwrap();
        let total = ["budget", "deadline", "shutdown"]
            .iter()
            .map(|k| flushes.get(k).unwrap().as_f64().unwrap())
            .sum::<f64>();
        assert!(total >= 1.0, "the annotate request flushed at least one batch");
    });
}

#[test]
fn sequential_responses_are_byte_identical_to_offline() {
    let world = synthetic_world(true, 42);
    with_server(&world, BatchPolicy::default(), |addr| {
        let mut c = Client::connect(addr, Some(Duration::from_secs(30))).expect("connect");
        for t in world.tables.iter().take(6) {
            let resp = c.request("POST", "/v1/annotate", table_to_json(t).as_bytes()).expect("req");
            assert_eq!(resp.status, 200);
            assert_eq!(
                resp.body,
                offline_bytes(&world, t),
                "online response must be byte-identical to offline annotate for {}",
                t.id
            );
        }
    });
}

#[test]
fn concurrent_burst_is_byte_identical_and_batched() {
    let world = synthetic_world(true, 42);
    // A generous deadline forces real coalescing: the burst below lands
    // well inside 50ms, so most responses ride shared batches.
    let policy = BatchPolicy { max_delay: Duration::from_millis(50), ..BatchPolicy::default() };
    let mut cfg = test_config(policy);
    (cfg.engine.max_batch, cfg.engine.max_batch_tokens) = (8, 100_000);
    let n_clients = 12usize;
    let world_ref = &world;
    with_server_cfg(world_ref, cfg, |addr| {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for k in 0..n_clients {
                handles.push(scope.spawn(move || {
                    let mut c =
                        Client::connect(addr, Some(Duration::from_secs(30))).expect("connect");
                    // Each client hits a different table, twice.
                    let t = &world_ref.tables[k % world_ref.tables.len()];
                    for _ in 0..2 {
                        let resp = c
                            .request("POST", "/v1/annotate", table_to_json(t).as_bytes())
                            .expect("annotate");
                        assert_eq!(resp.status, 200);
                        assert_eq!(resp.body, offline_bytes(world_ref, t), "table {}", t.id);
                    }
                }));
            }
            for h in handles {
                h.join().expect("client ok");
            }
        });

        // With 24 requests and an 8-sequence budget, coalescing must have
        // produced at least one multi-table batch.
        let mut c = Client::connect(addr, Some(Duration::from_secs(10))).expect("connect");
        let stats = c.request("GET", "/v1/stats", b"").expect("stats");
        let s = Json::parse(std::str::from_utf8(&stats.body).unwrap().trim()).unwrap();
        assert_eq!(s.get("requests_ok").and_then(Json::as_f64), Some(2.0 * n_clients as f64));
        let mean_batch =
            s.get("batch_tables").unwrap().get("mean").unwrap().as_f64().expect("mean");
        assert!(mean_batch > 1.0, "expected coalescing, got mean batch {mean_batch}");
    });
}

#[test]
fn multi_table_requests_round_trip() {
    let world = synthetic_world(true, 42);
    with_server(&world, BatchPolicy::default(), |addr| {
        let mut c = Client::connect(addr, Some(Duration::from_secs(30))).expect("connect");
        let ts: Vec<&Table> = world.tables.iter().take(3).collect();
        let body = format!(
            "{{\"tables\":[{}]}}",
            ts.iter().map(|t| table_to_json(t)).collect::<Vec<_>>().join(",")
        );
        let resp = c.request("POST", "/v1/annotate", body.as_bytes()).expect("annotate");
        assert_eq!(resp.status, 200);
        let anns: Vec<_> = ts.iter().map(|t| world.annotator().annotate(t)).collect();
        assert_eq!(resp.body, annotations_response(&anns, true).into_bytes());
    });
}

#[test]
fn oversized_table_is_rejected_not_crashed() {
    let world = synthetic_world(true, 42);
    with_server(&world, BatchPolicy::default(), |addr| {
        let mut c = Client::connect(addr, Some(Duration::from_secs(10))).expect("connect");
        let max_cols = world.bundle.annotator().model.config().serialize.max_supported_cols();
        let cols: Vec<String> = (0..max_cols + 1).map(|i| format!("[\"cell {i}\"]")).collect();
        let body = format!("{{\"columns\":[{}]}}", cols.join(","));
        let resp = c.request("POST", "/v1/annotate", body.as_bytes()).expect("answered");
        assert_eq!(resp.status, 400);
        // The daemon still serves afterwards.
        let mut c2 = Client::connect(addr, Some(Duration::from_secs(10))).expect("connect");
        let t = &world.tables[0];
        let ok = c2.request("POST", "/v1/annotate", table_to_json(t).as_bytes()).expect("annotate");
        assert_eq!(ok.status, 200);
    });
}

#[test]
fn keep_alive_reuses_connections_across_many_requests() {
    let world = synthetic_world(true, 42);
    with_server(&world, BatchPolicy::default(), |addr| {
        let mut c = Client::connect(addr, Some(Duration::from_secs(30))).expect("connect");
        for t in world.tables.iter().take(10) {
            let resp = c.request("POST", "/v1/annotate", table_to_json(t).as_bytes()).expect("req");
            assert_eq!(resp.status, 200);
        }
        let stats = c.request("GET", "/v1/stats", b"").expect("stats");
        let s = Json::parse(std::str::from_utf8(&stats.body).unwrap().trim()).unwrap();
        let conns = s.get("connections").expect("connections section");
        assert_eq!(conns.get("accepted").and_then(Json::as_f64), Some(1.0));
        // 11 requests so far on one connection: 10 reuses before this one.
        assert_eq!(conns.get("keepalive_reused").and_then(Json::as_f64), Some(10.0));
        assert_eq!(s.get("requests_ok").and_then(Json::as_f64), Some(10.0));
    });
}

#[test]
fn stream_results_arrive_incrementally_and_byte_identical() {
    let world = synthetic_world(true, 42);
    with_server(&world, BatchPolicy::default(), |addr| {
        let mut c = Client::connect(addr, Some(Duration::from_secs(30))).expect("connect");
        c.stream_open("/v1/annotate_stream").expect("open stream");
        assert_eq!(c.stream_status().expect("status"), 200);
        // Interleave: each result is read back *before* the next table is
        // sent (and before the upload is finished), proving per-table
        // streaming rather than buffer-then-answer.
        for t in world.tables.iter().take(5) {
            let mut doc = table_to_json(t);
            doc.push('\n');
            c.stream_send(doc.as_bytes()).expect("send table");
            let line = c.stream_next_line().expect("read result").expect("one result per table");
            assert_eq!(line.as_bytes(), offline_bytes(&world, t).as_slice(), "table {}", t.id);
        }
        c.stream_finish().expect("finish upload");
        assert_eq!(c.stream_next_line().expect("end of stream"), None);
    });
}

#[test]
fn stream_of_split_chunks_matches_offline_in_order() {
    let world = synthetic_world(true, 42);
    with_server(&world, BatchPolicy::default(), |addr| {
        let tables: Vec<&Table> = world.tables.iter().take(8).collect();
        let mut payload = String::new();
        for t in &tables {
            payload.push_str(&table_to_json(t));
            payload.push('\n');
        }
        let mut c = Client::connect(addr, Some(Duration::from_secs(30))).expect("connect");
        c.stream_open("/v1/annotate_stream").expect("open stream");
        // Deliberately awkward chunking: 97-byte pieces that split JSON
        // documents (and UTF-8-free ASCII) at arbitrary points.
        for piece in payload.as_bytes().chunks(97) {
            c.stream_send(piece).expect("send chunk");
        }
        c.stream_finish().expect("finish upload");
        let (status, lines) = c.stream_collect().expect("collect");
        assert_eq!(status, 200);
        assert_eq!(lines.len(), tables.len(), "one result line per table");
        for (t, line) in tables.iter().zip(&lines) {
            assert_eq!(line.as_bytes(), offline_bytes(&world, t).as_slice(), "table {}", t.id);
        }

        // Stream accounting is visible in /stats.
        let mut c2 = Client::connect(addr, Some(Duration::from_secs(10))).expect("connect");
        let stats = c2.request("GET", "/v1/stats", b"").expect("stats");
        let s = Json::parse(std::str::from_utf8(&stats.body).unwrap().trim()).unwrap();
        let streams = s.get("streams").expect("streams section");
        assert!(streams.get("ok").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
        assert!(streams.get("tables").and_then(Json::as_f64).unwrap_or(0.0) >= 8.0);
    });
}

#[test]
fn stream_total_length_is_not_capped() {
    let world = synthetic_world(true, 42);
    with_server(&world, BatchPolicy::default(), |addr| {
        let mut c = Client::connect(addr, Some(Duration::from_secs(30))).expect("connect");
        c.stream_open("/v1/annotate_stream").expect("open stream");
        assert_eq!(c.stream_status().expect("status"), 200);
        let t = &world.tables[0];
        let mut doc = table_to_json(t);
        doc.push('\n');
        c.stream_send(doc.as_bytes()).expect("send table");
        assert!(c.stream_next_line().expect("read").is_some());
        // Push the cumulative stream length well past MAX_BODY_BYTES (8 MB)
        // with inter-document whitespace: a stream's total length is
        // legitimately unbounded (memory is bounded per document and by
        // the read-ahead window), so this must not trip a 413-style limit.
        let filler = vec![b' '; 64 * 1024];
        for _ in 0..160 {
            c.stream_send(&filler).expect("send filler"); // 10 MB total
        }
        c.stream_send(doc.as_bytes()).expect("send second table");
        c.stream_finish().expect("finish");
        let line = c.stream_next_line().expect("read").expect("second result");
        assert_eq!(line.as_bytes(), offline_bytes(&world, t).as_slice());
        assert_eq!(c.stream_next_line().expect("eof"), None, "no error object");
    });
}

#[test]
fn idle_stream_is_cut_not_pinned() {
    let world = synthetic_world(true, 42);
    let cfg = ServeConfig {
        stream_idle_timeout: Duration::from_millis(300),
        ..test_config(BatchPolicy::default())
    };
    with_server_cfg(&world, cfg, |addr| {
        let mut c = Client::connect(addr, Some(Duration::from_secs(10))).expect("connect");
        c.stream_open("/v1/annotate_stream").expect("open stream");
        assert_eq!(c.stream_status().expect("status"), 200);
        let t = &world.tables[0];
        let mut doc = table_to_json(t);
        doc.push('\n');
        c.stream_send(doc.as_bytes()).expect("send table");
        let line = c.stream_next_line().expect("read").expect("result");
        assert_eq!(line.as_bytes(), offline_bytes(&world, t).as_slice());
        // Dribble meaningless whitespace: raw bytes are not progress, so
        // the idle timeout must cut the stream (a worker cannot be pinned
        // by a byte-dripping client).
        let t0 = std::time::Instant::now();
        let mut lines = Vec::new();
        loop {
            // Keep dripping while polling for the server's verdict.
            let _ = c.stream_send(b" ");
            std::thread::sleep(Duration::from_millis(50));
            match c.stream_next_line() {
                Ok(Some(l)) => lines.push(l),
                Ok(None) => break,
                Err(_) => break, // read timeout while server decides
            }
            assert!(t0.elapsed() < Duration::from_secs(8), "stream was never cut");
        }
        assert!(t0.elapsed() < Duration::from_secs(8), "stream was never cut");
        let err = lines.last().expect("an error object was streamed");
        assert!(err.contains("idle"), "expected idle-timeout error, got {err:?}");
    });
}

#[test]
fn stream_bad_table_gets_results_then_inband_error() {
    let world = synthetic_world(true, 42);
    with_server(&world, BatchPolicy::default(), |addr| {
        let mut c = Client::connect(addr, Some(Duration::from_secs(30))).expect("connect");
        c.stream_open("/v1/annotate_stream").expect("open stream");
        let t = &world.tables[0];
        let mut doc = table_to_json(t);
        doc.push('\n');
        doc.push_str("{\"columns\": 7}\n"); // parses as JSON, not as a table
        c.stream_send(doc.as_bytes()).expect("send");
        c.stream_finish().expect("finish");
        let (status, lines) = c.stream_collect().expect("collect");
        assert_eq!(status, 200, "stream errors are in-band once the response started");
        assert_eq!(lines.len(), 2, "good table's result, then the error object");
        assert_eq!(lines[0].as_bytes(), offline_bytes(&world, t).as_slice());
        let err = Json::parse(lines[1].trim()).expect("error object parses");
        assert!(err.get("error").is_some(), "second line is an error: {:?}", lines[1]);
    });
}

#[test]
fn shutdown_with_an_open_stream_still_returns_promptly() {
    let world = synthetic_world(true, 42);
    let server = Server::bind(test_config(BatchPolicy::default())).expect("bind");
    let addr = server.addr().to_string();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run(world.bundle.clone()));
        let mut c = Client::connect(&addr, Some(Duration::from_secs(10))).expect("connect");
        c.stream_open("/v1/annotate_stream").expect("open stream");
        assert_eq!(c.stream_status().expect("status"), 200);
        let t = &world.tables[0];
        let mut doc = table_to_json(t);
        doc.push('\n');
        c.stream_send(doc.as_bytes()).expect("send table");
        let line = c.stream_next_line().expect("result").expect("one result");
        assert_eq!(line.as_bytes(), offline_bytes(&world, t).as_slice());
        // The upload is deliberately left unfinished: a held-open stream
        // must not stall graceful shutdown (its worker notices the flag
        // within one poll cycle, flushes, and exits).
        let t0 = std::time::Instant::now();
        handle.shutdown();
        runner.join().expect("run() returns despite an open stream");
        assert!(t0.elapsed() < Duration::from_secs(5), "shutdown took {:?}", t0.elapsed());
    });
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let world = synthetic_world(true, 42);
    let cfg = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() };
    let server = Server::bind(cfg).expect("bind");
    let addr = server.addr().to_string();
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run(world.bundle.clone()));
        let mut c = Client::connect(&addr, Some(Duration::from_secs(10))).expect("connect");
        let t = &world.tables[1];
        let ok = c.request("POST", "/v1/annotate", table_to_json(t).as_bytes()).expect("annotate");
        assert_eq!(ok.status, 200);
        let resp = c.request("POST", "/v1/shutdown", b"").expect("shutdown answered");
        assert_eq!(resp.status, 200);
        runner.join().expect("run() returns after POST /shutdown");
    });
    // After shutdown (and dropping the server) the port must be closed.
    drop(server);
    assert!(Client::connect(&addr, Some(Duration::from_millis(200))).is_err());
}
