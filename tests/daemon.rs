//! The daemon over a real socket, in the tier-1 suite: one `/v1/annotate`
//! request and one `/v1/annotate_stream` session — driven full duplex, the
//! way the benchmark's client drives it — must answer with exactly the
//! bytes offline annotation produces; after `POST /v1/model` (the one route
//! with a thread of its own, the loader) re-installs the serving checkpoint,
//! with the same bytes under version 2; after it installs a different one,
//! with exactly the bytes offline annotation under *that* bundle produces
//! (nothing derived from the old weights — a packed GEMM panel, say — may
//! outlive the swap); `/v1/feedback` and an unprefixed path are 404s; and
//! `POST /v1/shutdown` must make `Server::run` return.

use doduo_core::blob_crc;
use doduo_served::bootstrap::synthetic_world;
use doduo_served::http::Client;
use doduo_served::json::table_to_json;
use doduo_served::validate::offline_response;
use doduo_served::{ServeConfig, Server};
use std::time::Duration;

#[test]
fn daemon_answers_offline_bytes_and_shuts_down() {
    let world = synthetic_world(true, 42);
    let server = Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() })
        .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let bodies: Vec<String> = world.tables.iter().take(3).map(table_to_json).collect();
    let offline = |body: &str| offline_response(&world.bundle, body).expect("offline annotate");
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run(world.bundle.clone()));
        // A failed assertion below must still stop the server, or the
        // scope's join would hang instead of reporting it.
        let _guard = ShutdownOnDrop(server.handle());

        let mut c = Client::connect(&addr, Some(Duration::from_secs(10))).expect("connect");
        let resp = c.request("POST", "/v1/annotate", bodies[0].as_bytes()).expect("annotate");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, offline(&bodies[0]).as_bytes(), "/v1/annotate == offline");
        let crc = blob_crc(&world.bundle.save()).expect("a saved bundle has a header CRC");
        assert_eq!(resp.model_version, Some(format!("1-{crc:08x}")), "the boot model's label");

        // A window of 4 tables in flight, the next one sent only once a
        // line has come back, the upload finished last: the daemon reads
        // and writes the one connection at the same time throughout.
        let streamed: Vec<String> = world.tables.iter().take(12).map(table_to_json).collect();
        let mut s = Client::connect(&addr, Some(Duration::from_secs(10))).expect("connect");
        s.stream_open("/v1/annotate_stream").expect("open stream");
        assert_eq!(s.stream_status().expect("head before any table is sent"), 200);
        let mut lines = Vec::new();
        let mut sent = 0;
        while lines.len() < streamed.len() {
            while sent < streamed.len() && sent - lines.len() < 4 {
                s.stream_send(format!("{}\n", streamed[sent]).as_bytes()).expect("send table");
                sent += 1;
            }
            lines.push(s.stream_next_line().expect("read line").expect("a line per table"));
        }
        s.stream_finish().expect("finish upload");
        assert_eq!(s.stream_next_line().expect("end of stream"), None, "no error object");
        let expected: Vec<String> = streamed.iter().map(|b| offline(b)).collect();
        assert_eq!(lines, expected, "one offline-identical line per streamed table, in order");

        // The stream route answered a plain request: `request` reads the
        // whole chunked body, not an empty one.
        let mut one = Client::connect(&addr, Some(Duration::from_secs(10))).expect("connect");
        let resp =
            one.request("POST", "/v1/annotate_stream", bodies[0].as_bytes()).expect("stream");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, offline(&bodies[0]).as_bytes(), "dechunked body == offline");

        // The serving bundle's own blob, through the loader thread: a new
        // version, the same bytes.
        let swap = c.request("POST", "/v1/model", &world.bundle.save()).expect("model upload");
        assert_eq!(swap.status, 200, "swap rejected: {}", String::from_utf8_lossy(&swap.body));
        assert!(swap.model_version.is_some_and(|v| v.starts_with("2-")), "version 2 serves");
        let resp = c.request("POST", "/v1/annotate", bodies[0].as_bytes()).expect("annotate");
        assert_eq!(resp.body, offline(&bodies[0]).as_bytes(), "same weights, same bytes");

        let types = vec!["[]"; world.tables[0].n_cols()].join(",");
        let feedback = format!("{{\"table\": {}, \"types\": [{types}]}}", bodies[0]);
        let resp = c.request("POST", "/v1/feedback", feedback.as_bytes()).expect("feedback");
        assert_eq!(resp.status, 404, "a replica keeps no corrections");
        assert!(String::from_utf8_lossy(&resp.body).contains("\"code\":\"not_found\""));
        let resp = c.request("POST", "/annotate", bodies[0].as_bytes()).expect("answered");
        assert_eq!(resp.status, 404, "a route has no unprefixed second name");

        let next = synthetic_world(true, 99);
        let swap = c.request("POST", "/v1/model", &next.bundle.save()).expect("model upload");
        assert_eq!(swap.status, 200, "swap rejected: {}", String::from_utf8_lossy(&swap.body));
        for body in &bodies {
            let resp = c.request("POST", "/v1/annotate", body.as_bytes()).expect("annotate");
            assert_eq!(resp.status, 200);
            let want = offline_response(&next.bundle, body).expect("offline annotate, new model");
            assert_ne!(want, offline(body), "the two models must disagree for this to bite");
            assert_eq!(
                resp.body,
                want.as_bytes(),
                "/v1/annotate after a swap == offline, new model"
            );
        }

        let bye = c.request("POST", "/v1/shutdown", b"").expect("shutdown answered");
        assert_eq!(bye.status, 200);
        runner.join().expect("run() returns after POST /v1/shutdown");
    });
}

struct ShutdownOnDrop(doduo_served::ServerHandle);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}
