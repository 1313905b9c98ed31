//! Swap atomicity under fire: hammer `/v1/annotate` from several threads
//! while the model is repeatedly hot-swapped between two trained
//! checkpoints. The invariant is *exactly-one-model per response*: every
//! body is byte-identical to the offline annotation under one of the two
//! bundles — never a torn mix — and the `x-model-version` header names the
//! model that actually produced those bytes (its CRC matches the blob). A
//! stream is one response: it keeps the model it opened under to its end.

use doduo_core::blob_crc;
use doduo_serve::BatchConfig;
use doduo_served::bootstrap::{synthetic_world, SyntheticWorld};
use doduo_served::http::Client;
use doduo_served::validate::offline_response;
use doduo_served::{BatchPolicy, ServeConfig, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        policy: BatchPolicy::default(),
        engine: BatchConfig { threads: 2, ..BatchConfig::default() },
        ..ServeConfig::default()
    }
}

struct ShutdownOnDrop(doduo_served::ServerHandle);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Two distinct trained models, the request bodies, and the offline
/// reference bytes each model must produce for each body.
struct TwoModels {
    boot: SyntheticWorld,
    blob_a: Vec<u8>,
    blob_b: Vec<u8>,
    crc_a: String,
    crc_b: String,
    bodies: Vec<String>,
    refs_a: Vec<Vec<u8>>,
    refs_b: Vec<Vec<u8>>,
}

fn two_models() -> TwoModels {
    let boot = synthetic_world(true, 42);
    let other = synthetic_world(true, 99);
    let blob_a = boot.bundle.save();
    let blob_b = other.bundle.save();
    let crc_a = format!("-{:08x}", blob_crc(&blob_a).expect("blob A crc"));
    let crc_b = format!("-{:08x}", blob_crc(&blob_b).expect("blob B crc"));
    assert_ne!(crc_a, crc_b, "seeds 42 and 99 must train distinct models");
    let bodies: Vec<String> =
        boot.tables.iter().take(3).map(doduo_served::json::table_to_json).collect();
    let refs_a: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| offline_response(&boot.bundle, b).expect("offline A").into_bytes())
        .collect();
    let refs_b: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| offline_response(&other.bundle, b).expect("offline B").into_bytes())
        .collect();
    for (a, b) in refs_a.iter().zip(&refs_b) {
        assert_ne!(a, b, "the two models must disagree somewhere for this test to bite");
    }
    TwoModels { boot, blob_a, blob_b, crc_a, crc_b, bodies, refs_a, refs_b }
}

/// The tentpole invariant: under continuous concurrent load, blue/green
/// swaps are atomic per response. Also pins the `/v1/stats` model block:
/// the swap counter and the final version label must both be visible.
#[test]
fn concurrent_swaps_never_tear_responses() {
    let m = two_models();
    let server = Server::bind(test_config()).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    const SWAPS: usize = 6;
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(server.handle());
        let runner = scope.spawn(|| server.run(m.boot.bundle.clone()));

        let hammers: Vec<_> = (0..4usize)
            .map(|tid| {
                let (addr, m, stop) = (&addr, &m, &stop);
                scope.spawn(move || {
                    let mut c = Client::connect(addr, Some(Duration::from_secs(30)))
                        .expect("connect hammer");
                    let mut served = 0usize;
                    for i in tid.. {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let idx = i % m.bodies.len();
                        let resp = c
                            .request("POST", "/v1/annotate", m.bodies[idx].as_bytes())
                            .expect("annotate under swap");
                        assert_eq!(resp.status, 200, "no errors during a hot swap");
                        let v = resp.model_version.expect("annotate carries x-model-version");
                        if resp.body == m.refs_a[idx] {
                            assert!(v.ends_with(&m.crc_a), "bytes from A, version {v}");
                        } else {
                            assert_eq!(resp.body, m.refs_b[idx], "torn response: neither model");
                            assert!(v.ends_with(&m.crc_b), "bytes from B, version {v}");
                        }
                        served += 1;
                    }
                    served
                })
            })
            .collect();

        // Swap back and forth while the hammers run; every upload must be
        // accepted and report the version label of the blob it installed.
        let mut sc = Client::connect(&addr, Some(Duration::from_secs(30))).expect("connect swap");
        for i in 0..SWAPS {
            let (blob, crc) =
                if i % 2 == 0 { (&m.blob_b, &m.crc_b) } else { (&m.blob_a, &m.crc_a) };
            let resp = sc.request("POST", "/v1/model", blob).expect("model upload");
            let body = String::from_utf8_lossy(&resp.body).to_string();
            assert_eq!(resp.status, 200, "swap {i} rejected: {body}");
            let v = resp.model_version.expect("swap response carries x-model-version");
            assert!(v.ends_with(crc), "swap {i} installed {v}, expected CRC {crc}");
            assert_eq!(v, format!("{}{crc}", i + 2), "versions are monotonic from 1");
            std::thread::sleep(Duration::from_millis(60));
        }
        stop.store(true, Ordering::Relaxed);
        let served: usize = hammers.into_iter().map(|h| h.join().expect("hammer")).sum();
        assert!(served >= 2 * SWAPS, "only {served} requests overlapped the swaps");

        // The stats window agrees: swap count and the final version label.
        let resp = sc.request("GET", "/v1/stats", b"").expect("stats");
        assert_eq!(resp.status, 200);
        let stats = String::from_utf8(resp.body).expect("utf8 stats");
        assert!(stats.contains(&format!("\"swaps\":{SWAPS}")), "stats: {stats}");
        // SWAPS is even, so the last upload installed blob A as version SWAPS+1.
        let last = format!("\"version\":\"{}{}\"", SWAPS + 1, m.crc_a);
        assert!(stats.contains(&last), "expected {last} in stats: {stats}");

        drop(guard);
        runner.join().expect("server thread exits cleanly");
    });
}

/// A corrupted blob must be rejected atomically: the serving model, its
/// version label, and the swap counter are all untouched.
#[test]
fn corrupt_upload_is_rejected_and_the_live_model_is_untouched() {
    let m = two_models();
    let server = Server::bind(test_config()).expect("bind ephemeral port");
    let addr = server.addr().to_string();

    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(server.handle());
        let runner = scope.spawn(|| server.run(m.boot.bundle.clone()));

        let mut c = Client::connect(&addr, Some(Duration::from_secs(30))).expect("connect");
        let mut corrupt = m.blob_b.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        let resp = c.request("POST", "/v1/model", &corrupt).expect("corrupt upload answered");
        assert_eq!(resp.status, 400, "a CRC-failing blob must be rejected");

        let resp = c.request("POST", "/v1/annotate", m.bodies[0].as_bytes()).expect("annotate");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, m.refs_a[0], "the boot model must still be serving");
        let v = resp.model_version.expect("version header");
        assert!(v.ends_with(&m.crc_a), "version must still be the boot model, got {v}");

        let stats = c.request("GET", "/v1/stats", b"").expect("stats");
        let stats = String::from_utf8(stats.body).expect("utf8 stats");
        assert!(stats.contains("\"swaps\":0"), "a rejected upload is not a swap: {stats}");

        drop(guard);
        runner.join().expect("server thread exits cleanly");
    });
}

/// A diverged fine-tune's checkpoint — intact, CRC-valid, one weight NaN —
/// must be turned away at the door (400 `bad_bundle`) instead of reaching
/// an engine thread: the old model keeps its version label and keeps
/// answering byte-identically to offline.
#[test]
fn non_finite_upload_is_rejected_and_serving_continues() {
    let m = two_models();
    let mut poisoned = doduo_core::AnnotatorBundle::load(&m.blob_b).expect("blob B loads");
    let id = poisoned.store.find("m.type.out.w").expect("type head weight");
    poisoned.store.get_mut(id).data_mut()[0] = f32::NAN;
    let blob = poisoned.save();
    assert!(blob_crc(&blob).is_some(), "the poisoned blob is a well-formed bundle");

    let server = Server::bind(test_config()).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(server.handle());
        let runner = scope.spawn(|| server.run(m.boot.bundle.clone()));

        let mut c = Client::connect(&addr, Some(Duration::from_secs(30))).expect("connect");
        let resp = c.request("POST", "/v1/model", &blob).expect("poisoned upload answered");
        let body = String::from_utf8_lossy(&resp.body).to_string();
        assert_eq!(resp.status, 400, "a non-finite checkpoint must be rejected: {body}");
        assert!(body.contains("bad_bundle") && body.contains("m.type.out.w"), "body: {body}");

        for (body, reference) in m.bodies.iter().zip(&m.refs_a) {
            let resp = c.request("POST", "/v1/annotate", body.as_bytes()).expect("annotate");
            assert_eq!(resp.status, 200);
            assert_eq!(&resp.body, reference, "the boot model must still be serving");
            let v = resp.model_version.expect("version header");
            assert_eq!(v, format!("1{}", m.crc_a), "version must be unchanged");
        }

        drop(guard);
        runner.join().expect("server thread exits cleanly");
    });
}

/// One model per stream: a stream that straddles `POST /v1/model` answers
/// every line — before and after the swap — with the bundle it opened
/// under, while requests admitted after the swap get the new one.
#[test]
fn a_stream_that_straddles_a_swap_keeps_the_model_it_opened_under() {
    let m = two_models();
    let server = Server::bind(test_config()).expect("bind ephemeral port");
    let addr = server.addr().to_string();

    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(server.handle());
        let runner = scope.spawn(|| server.run(m.boot.bundle.clone()));

        let mut s = Client::connect(&addr, Some(Duration::from_secs(30))).expect("connect");
        s.stream_open("/v1/annotate_stream").expect("open stream");
        assert_eq!(s.stream_status().expect("status"), 200);
        let mut send_and_check = |i: usize, when: &str| {
            s.stream_send(format!("{}\n", m.bodies[i]).as_bytes()).expect("send table");
            let line = s.stream_next_line().expect("read").expect("a result line");
            assert_eq!(line.as_bytes(), m.refs_a[i], "table {i} {when} the swap: old bundle");
        };
        send_and_check(0, "before");

        let mut c = Client::connect(&addr, Some(Duration::from_secs(30))).expect("connect");
        let swap = c.request("POST", "/v1/model", &m.blob_b).expect("model upload");
        assert_eq!(swap.status, 200, "{}", String::from_utf8_lossy(&swap.body));
        let resp = c.request("POST", "/v1/annotate", m.bodies[0].as_bytes()).expect("annotate");
        let v = resp.model_version.expect("version header");
        assert!(v.ends_with(&m.crc_b), "admitted after the swap, answered by {v}");
        assert_eq!(resp.body, m.refs_b[0]);

        send_and_check(1, "after");
        send_and_check(2, "after");
        s.stream_finish().expect("finish upload");
        assert_eq!(s.stream_next_line().expect("end of stream"), None, "no error object");

        drop(guard);
        runner.join().expect("server thread exits cleanly");
    });
}
