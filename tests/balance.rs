//! The balancer over a real socket, in the tier-1 suite: an in-process
//! `doduo-balance` front (one static backend) over an in-process daemon.
//! `/v1/annotate` through the front must answer exactly the bytes offline
//! annotation produces, with the replica's `x-model-version`; 64 parked
//! keep-alive clients cost the front no thread and do not keep a fresh
//! connection from being served; the stream route is a 501 and an
//! unprefixed path a 404; and `POST /v1/shutdown` must make
//! `Balancer::run` return `Ok`.

use doduo_balance::{BalanceConfig, Balancer};
use doduo_served::bootstrap::synthetic_world;
use doduo_served::http::Client;
use doduo_served::json::table_to_json;
use doduo_served::validate::offline_response;
use doduo_served::{ServeConfig, Server};
use std::time::Duration;

#[test]
fn balancer_relays_offline_bytes_parks_clients_without_threads_and_shuts_down() {
    let world = synthetic_world(true, 42);
    let server = Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() })
        .expect("bind daemon");
    let balancer = Balancer::bind(BalanceConfig {
        addr: "127.0.0.1:0".into(),
        static_backends: vec![server.addr().to_string()],
        ..BalanceConfig::default()
    })
    .expect("bind balancer");
    let addr = balancer.addr().to_string();
    let body = table_to_json(&world.tables[0]);
    let offline = offline_response(&world.bundle, &body).expect("offline annotate");
    let connect = || Client::connect(&addr, Some(Duration::from_secs(10))).expect("connect");
    std::thread::scope(|scope| {
        scope.spawn(|| server.run(world.bundle.clone()));
        let front = scope.spawn(|| balancer.run());
        // A failed assertion below must still stop both, or the scope's
        // join would hang instead of reporting it.
        let (daemon, handle) = (server.handle(), balancer.handle());
        let _stop = OnDrop(|| {
            handle.shutdown();
            daemon.shutdown();
        });

        let mut c = connect();
        let resp = c.request("POST", "/v1/annotate", body.as_bytes()).expect("annotate");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, offline.as_bytes(), "through the balancer == offline");
        assert!(resp.model_version.is_some_and(|v| v.starts_with("1-")), "version relayed");

        let before = threads();
        let parked: Vec<Client> = (0..64)
            .map(|_| {
                let mut p = connect();
                assert_eq!(p.request("GET", "/v1/healthz", b"").expect("healthz").status, 200);
                p
            })
            .collect();
        let after = threads();
        assert!(
            after < before + 8,
            "64 parked clients took the process {before} -> {after} threads"
        );
        let resp = connect().request("POST", "/v1/annotate", body.as_bytes()).expect("annotate");
        assert_eq!(resp.body, offline.as_bytes(), "a fresh connection behind 64 parked ones");

        let resp = c.request("POST", "/v1/annotate_stream", body.as_bytes()).expect("answered");
        assert_eq!(resp.status, 501, "streams are not proxied");
        let resp = c.request("POST", "/annotate", body.as_bytes()).expect("answered");
        assert_eq!(resp.status, 404, "a route has no unprefixed second name");

        let bye = c.request("POST", "/v1/shutdown", b"").expect("shutdown answered");
        assert_eq!(bye.status, 200);
        assert_eq!(front.join().expect("front thread"), Ok(()), "run() returns after shutdown");
        drop(parked);
    });
}

/// Threads of this test process, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("Threads line");
    line.trim().parse().expect("thread count")
}

struct OnDrop<F: Fn()>(F);

impl<F: Fn()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}
