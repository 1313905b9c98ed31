//! Closed-loop load bench for the `doduo-served` daemon (not a paper
//! experiment — the online-serving lever of the ROADMAP's production north
//! star).
//!
//! Starts the daemon in-process on an ephemeral port, then drives it over
//! real HTTP (the versioned `/v1` routes) across a grid of client counts,
//! and writes per-cell p50/p99 latency, tables/sec, and connection-reuse
//! rate to `BENCH_serve.json`. Three direct-daemon modes:
//!
//! * **request** — closed-loop single-table `/v1/annotate` clients;
//! * **stream** — each client holds one `/annotate_stream` connection and
//!   pipelines tables through it (window of 16);
//! * **idle_fleet** — hundreds-to-thousands of keep-alive connections park
//!   for the whole cell (bookending it with one request each on the same
//!   connection) while a small active set measures latency — the scenario
//!   the epoll reactor exists for;
//!
//! then **replicated** cells (real replica processes behind the in-process
//! balancer) and one **chaos** cell (a crash-looping replica).
//!
//! Clients are closed-loop (send → wait → repeat) on persistent
//! connections; they reconnect only when a request fails, so the reported
//! `conn_reuse_rate` (1 − (connects − clients)/requests, i.e. excluding
//! each client's unavoidable first dial) is a direct measurement of
//! keep-alive doing its job: exactly 1.0 means no connection was ever
//! re-dialed. Request and stream cells report the best of two trials.
//!
//! Run: `cargo run --release -p doduo-bench --bin serve_load -- --scale quick`

use doduo_balance::{BalanceConfig, Balancer, SupervisorConfig};
use doduo_bench::report::Report;
use doduo_bench::{ExpOptions, Scale};
use doduo_serve::BatchConfig;
use doduo_served::bootstrap::synthetic_world;
use doduo_served::http::Client;
use doduo_served::json::table_to_json;
use doduo_served::{percentiles, BatchPolicy, Percentiles, ServeConfig, Server};
use doduo_tensor::default_threads;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Pipelined tables in flight per streaming client.
const STREAM_CLIENT_WINDOW: usize = 16;

/// The direct daemon's batching deadline: the "eager" policy every cell
/// reports (flush as soon as the dispatcher is free).
const MAX_DELAY_MS: u64 = 0;

/// Cap on how long a shed client honors a server `Retry-After` hint — the
/// hints are in whole seconds, far coarser than bench cell durations.
const MAX_RETRY_AFTER_WAIT: Duration = Duration::from_millis(250);

struct Cell {
    topology: &'static str,
    mode: &'static str,
    workers: usize,
    /// Replica processes behind the balancer; `0` = direct daemon.
    replicas: usize,
    clients: usize,
    requests: usize,
    connects: usize,
    /// 503 backpressure responses (each honored via `Retry-After`).
    sheds: usize,
    /// Client-visible failures (non-200, non-503).
    errors: usize,
    /// Replica respawns performed by the supervisor during the cell.
    restarts: u64,
    secs: f64,
    tables_per_sec: f64,
    latency_ms: Percentiles,
}

impl Cell {
    /// The cell for one trial against the direct daemon (`replicas == 0`)
    /// or a balanced fleet.
    fn new(
        topology: &'static str,
        mode: &'static str,
        workers: usize,
        replicas: usize,
        clients: usize,
        t: Trial,
        restarts: u64,
    ) -> Cell {
        Cell {
            topology,
            mode,
            workers,
            replicas,
            clients,
            requests: t.requests,
            connects: t.connects,
            sheds: t.sheds,
            errors: t.errors,
            restarts,
            secs: t.secs,
            tables_per_sec: t.tables_per_sec(),
            latency_ms: t.lat,
        }
    }

    /// Fraction of answered (non-shed) requests that succeeded.
    fn availability(&self) -> f64 {
        if self.requests + self.errors == 0 {
            return 1.0;
        }
        self.requests as f64 / (self.requests + self.errors) as f64
    }
}

/// What one closed-loop trial observed.
#[derive(Clone, Copy)]
struct Trial {
    requests: usize,
    connects: usize,
    sheds: usize,
    errors: usize,
    secs: f64,
    lat: Percentiles,
}

impl Trial {
    fn tables_per_sec(&self) -> f64 {
        self.requests as f64 / self.secs
    }

    /// The higher-throughput of two runs of `run`.
    fn best_of_two(run: impl Fn() -> Trial) -> Trial {
        let (a, b) = (run(), run());
        if b.tables_per_sec() > a.tables_per_sec() {
            b
        } else {
            a
        }
    }
}

fn to_ms(p: Percentiles) -> Percentiles {
    Percentiles {
        count: p.count,
        mean: p.mean / 1e3,
        p50: p.p50 / 1e3,
        p99: p.p99 / 1e3,
        max: p.max / 1e3,
    }
}

/// One request-mode cell: `clients` closed-loop threads hammering `addr`
/// for `duration` on persistent connections, each cycling through its own
/// slice of the corpus. 503 backpressure is not an error: the client backs
/// off for the server's `Retry-After` hint (capped — the hints are whole
/// seconds) and the shed is counted separately.
fn run_request_cell(addr: &str, bodies: &[String], clients: usize, duration: Duration) -> Trial {
    let stop = AtomicBool::new(false);
    let stop = &stop;
    let connects = AtomicUsize::new(0);
    let connects = &connects;
    let sheds = AtomicUsize::new(0);
    let sheds = &sheds;
    let errors = AtomicUsize::new(0);
    let errors = &errors;
    let t0 = Instant::now();
    let lat_us: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                scope.spawn(move || {
                    let connect = || {
                        connects.fetch_add(1, Ordering::Relaxed);
                        Client::connect(addr, Some(Duration::from_secs(30)))
                            .expect("connect to daemon")
                    };
                    let mut c = connect();
                    let mut lats = Vec::new();
                    let mut i = k; // stagger the per-client table streams
                    while !stop.load(Ordering::Relaxed) {
                        let body = &bodies[i % bodies.len()];
                        let r0 = Instant::now();
                        match c.request("POST", "/v1/annotate", body.as_bytes()) {
                            Ok(resp) if resp.status == 200 => {
                                lats.push(r0.elapsed().as_micros() as u64);
                                i += 1;
                            }
                            Ok(resp) if resp.status == 503 => {
                                // Backpressure: honor the Retry-After hint.
                                sheds.fetch_add(1, Ordering::Relaxed);
                                let hint = resp
                                    .retry_after
                                    .map_or(MAX_RETRY_AFTER_WAIT, Duration::from_secs)
                                    .min(MAX_RETRY_AFTER_WAIT);
                                std::thread::sleep(hint);
                            }
                            Ok(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                i += 1;
                            }
                            // A dropped connection (e.g. server-side idle
                            // close) is re-dialed, and counted.
                            Err(_) => c = connect(),
                        }
                    }
                    lats
                })
            })
            .collect();
        // The scope's main thread is the timer.
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().expect("client thread ok")).collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let all: Vec<u64> = lat_us.into_iter().flatten().collect();
    let p = to_ms(percentiles(&all));
    Trial {
        requests: p.count,
        connects: connects.load(Ordering::Relaxed),
        sheds: sheds.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        secs,
        lat: p,
    }
}

/// One stream-mode cell: each client sends `per_client` tables down a
/// single `/annotate_stream` connection with a pipelining window, and
/// latency is measured per table from send to result arrival.
fn run_stream_cell(addr: &str, bodies: &[String], clients: usize, per_client: usize) -> Trial {
    let t0 = Instant::now();
    let lat_us: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr, Some(Duration::from_secs(30)))
                        .expect("connect to daemon");
                    c.stream_open("/v1/annotate_stream").expect("open stream");
                    assert_eq!(c.stream_status().expect("status"), 200);
                    let mut sent = 0usize;
                    let mut recvd = 0usize;
                    let mut send_at = vec![Instant::now(); per_client];
                    let mut lats = Vec::with_capacity(per_client);
                    while recvd < per_client {
                        while sent < per_client && sent - recvd < STREAM_CLIENT_WINDOW {
                            let mut doc = bodies[(k + sent) % bodies.len()].clone();
                            doc.push('\n');
                            send_at[sent] = Instant::now();
                            c.stream_send(doc.as_bytes()).expect("send table");
                            sent += 1;
                            if sent == per_client {
                                c.stream_finish().expect("finish upload");
                            }
                        }
                        let line = c.stream_next_line().expect("read").expect("result per table");
                        assert!(
                            line.starts_with("{\"types\""),
                            "stream answered with an error: {line}"
                        );
                        lats.push(send_at[recvd].elapsed().as_micros() as u64);
                        recvd += 1;
                    }
                    assert_eq!(c.stream_next_line().expect("eof"), None, "stream ends cleanly");
                    lats
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("stream client ok")).collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let all: Vec<u64> = lat_us.into_iter().flatten().collect();
    let p = to_ms(percentiles(&all));
    Trial { requests: p.count, connects: clients, sheds: 0, errors: 0, secs, lat: p }
}

/// One idle-fleet cell: `fleet` keep-alive connections each send a single
/// request, park untouched for the whole cell, then send one more request
/// down the *same* connection — proving the daemon holds a large mostly-
/// idle fleet without dropping anyone — while `active` closed-loop clients
/// measure latency through the noise. The reported percentiles cover the
/// active clients only (the fleet's two bookend requests are counted in
/// `requests`/`connects` but would drown the tail otherwise); any fleet
/// re-dial or non-200 counts as an error.
fn run_idle_fleet_cell(
    addr: &str,
    bodies: &[String],
    fleet: usize,
    active: usize,
    duration: Duration,
) -> Trial {
    let stop = AtomicBool::new(false);
    let stop = &stop;
    let parked = AtomicUsize::new(0);
    let parked = &parked;
    let errors = AtomicUsize::new(0);
    let errors = &errors;
    let t0 = Instant::now();
    let (mid, fleet_requests) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..fleet)
            .map(|k| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr, Some(Duration::from_secs(30)))
                        .expect("connect fleet member");
                    let body = &bodies[k % bodies.len()];
                    let mut answered = 0usize;
                    for phase in 0..2 {
                        match c.request("POST", "/v1/annotate", body.as_bytes()) {
                            Ok(resp) if resp.status == 200 => answered += 1,
                            _ => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        if phase == 0 {
                            parked.fetch_add(1, Ordering::Relaxed);
                            while !stop.load(Ordering::Relaxed) {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                        }
                    }
                    answered
                })
            })
            .collect();
        // Only measure once the whole fleet is parked: the point is latency
        // *with* the idle connections resident, not while they dial in.
        while parked.load(Ordering::Relaxed) < fleet {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mid = run_request_cell(addr, bodies, active, duration);
        stop.store(true, Ordering::Relaxed);
        let fleet_requests: usize =
            handles.into_iter().map(|h| h.join().expect("fleet member ok")).sum();
        (mid, fleet_requests)
    });
    Trial {
        requests: mid.requests + fleet_requests,
        connects: mid.connects + fleet,
        sheds: mid.sheds,
        errors: mid.errors + errors.load(Ordering::Relaxed),
        secs: t0.elapsed().as_secs_f64(),
        lat: mid.lat,
    }
}

fn main() {
    let opts = ExpOptions::from_args_for(
        "Serving load bench: the daemon under concurrent clients, writes BENCH_serve.json",
    );
    let started = Instant::now();
    let quick = opts.scale == Scale::Quick;
    let world = synthetic_world(quick, opts.seed);
    let bodies: Vec<String> = world.tables.iter().map(table_to_json).collect();
    let n_threads = default_threads();
    eprintln!(
        "[serve_load] world ready: {} tables, {} cores, setup {:?}",
        bodies.len(),
        n_threads,
        started.elapsed()
    );

    let (cell_secs, client_grid): (f64, Vec<usize>) =
        if quick { (1.0, vec![1, 4, 16, 64]) } else { (2.0, vec![1, 2, 4, 8, 16, 32, 64]) };
    let stream_clients: Vec<usize> = if quick { vec![1, 4, 16] } else { vec![1, 4, 16, 64] };
    let stream_per_client = if quick { 48 } else { 128 };
    let cell_duration = Duration::from_secs_f64(cell_secs);

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        policy: BatchPolicy {
            max_delay: Duration::from_millis(MAX_DELAY_MS),
            ..BatchPolicy::default()
        },
        engine: BatchConfig { threads: n_threads, ..BatchConfig::default() },
        // Room for the 1024-connection idle fleet plus actives.
        max_connections: 2048,
        ..ServeConfig::default()
    };
    let workers = cfg.workers;
    let server = Server::bind(cfg).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let addr = addr.as_str();

    let mut cells: Vec<Cell> = Vec::new();
    std::thread::scope(|scope| {
        let bundle = world.bundle.clone();
        let runner = scope.spawn(|| server.run(bundle));
        // Warm-up pass: fill the tokenization cache, fault pages.
        let _ = run_request_cell(addr, &bodies, 2, cell_duration / 2);
        for &clients in &client_grid {
            let t = Trial::best_of_two(|| run_request_cell(addr, &bodies, clients, cell_duration));
            let cell = Cell::new("epoll", "request", workers, 0, clients, t, 0);
            eprintln!(
                "[serve_load] {:>10} clients {clients:>2}: {:>7.1} tables/sec, p50 {:>6.2} ms, \
                 p99 {:>7.2} ms, reuse {:.3} ({} reqs)",
                "request",
                cell.tables_per_sec,
                cell.latency_ms.p50,
                cell.latency_ms.p99,
                reuse_rate(&cell),
                t.requests
            );
            cells.push(cell);
        }
        for &clients in &stream_clients {
            let t =
                Trial::best_of_two(|| run_stream_cell(addr, &bodies, clients, stream_per_client));
            let cell = Cell::new("epoll", "stream", workers, 0, clients, t, 0);
            eprintln!(
                "[serve_load] {:>10} clients {clients:>2}: {:>7.1} tables/sec, p50 {:>6.2} ms, \
                 p99 {:>7.2} ms ({} tables)",
                "stream", cell.tables_per_sec, cell.latency_ms.p50, cell.latency_ms.p99, t.requests
            );
            cells.push(cell);
        }
        // High-connection idle fleets: 256 and 1024 parked keep-alive
        // connections behind a small active set.
        let idle_active = 16;
        for &fleet in &[256usize, 1024] {
            let t = run_idle_fleet_cell(addr, &bodies, fleet, idle_active, cell_duration);
            let cell = Cell::new("epoll", "idle_fleet", workers, 0, fleet + idle_active, t, 0);
            eprintln!(
                "[serve_load] {:>10} fleet {fleet:>4}+{idle_active}: {:>7.1} tables/sec, \
                 p50 {:>6.2} ms, p99 {:>7.2} ms, reuse {:.3}, {} errors",
                "idle",
                cell.tables_per_sec,
                cell.latency_ms.p50,
                cell.latency_ms.p99,
                reuse_rate(&cell),
                cell.errors
            );
            cells.push(cell);
        }
        server.handle().shutdown();
        runner.join().expect("daemon thread exits");
    });

    // ------------------------------------------------------------------
    // Replicated serving: real replica processes behind the in-process
    // balancer (doduo-balance as a library). Runs after the direct-daemon
    // grid so the replica fleets don't contend with it for cores.
    // ------------------------------------------------------------------
    let served_bin = served_binary();
    let scratch = std::env::temp_dir().join(format!("serve_load-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let ckpt = scratch.join("bundle.ckpt");
    world.bundle.save_to(ckpt.to_str().expect("utf8 path")).expect("save checkpoint");

    let replicated_clients = if quick { 8 } else { 16 };
    for &replicas in &[1usize, 2, 4] {
        let (trial, restarts) = run_balanced_cell(
            &served_bin,
            &ckpt,
            &scratch,
            &bodies,
            replicas,
            &[],
            replicated_clients,
            cell_duration,
        );
        let cell =
            Cell::new("replicated", "request", 2, replicas, replicated_clients, trial, restarts);
        eprintln!(
            "[serve_load] {:>10} clients {replicated_clients:>2}: {:>7.1} tables/sec, \
             p50 {:>6.2} ms, p99 {:>7.2} ms ({} reqs, {} replicas)",
            "replicated",
            cell.tables_per_sec,
            cell.latency_ms.p50,
            cell.latency_ms.p99,
            trial.requests,
            replicas,
        );
        cells.push(cell);
    }

    // The chaos availability cell: three replicas, one crash-looping under
    // deterministic fault injection. Availability must stay flat at 1.0 —
    // crashes strike before any response byte, so failover hides them.
    let chaos_clients = if quick { 4 } else { 8 };
    let (trial, restarts) = run_balanced_cell(
        &served_bin,
        &ckpt,
        &scratch,
        &bodies,
        3,
        &[(0, "crash_after=25,seed=7")],
        chaos_clients,
        cell_duration * 3,
    );
    let chaos_cell = Cell::new("replicated", "chaos", 2, 3, chaos_clients, trial, restarts);
    eprintln!(
        "[serve_load] {:>10} clients {chaos_clients:>2}: {:>7.1} tables/sec, \
         availability {:.4}, {} restarts, {} sheds",
        "chaos",
        chaos_cell.tables_per_sec,
        chaos_cell.availability(),
        restarts,
        trial.sheds,
    );
    cells.push(chaos_cell);
    let _ = std::fs::remove_dir_all(&scratch);

    let mut r = Report::new(
        "Online serving load (doduo-served, closed-loop clients)",
        &[
            "topology",
            "mode",
            "repl",
            "clients",
            "tables/sec",
            "p50 ms",
            "p99 ms",
            "reuse",
            "avail",
        ],
    );
    for c in &cells {
        r.row(&[
            c.topology.to_string(),
            c.mode.to_string(),
            c.replicas.to_string(),
            c.clients.to_string(),
            format!("{:.1}", c.tables_per_sec),
            format!("{:.2}", c.latency_ms.p50),
            format!("{:.2}", c.latency_ms.p99),
            format!("{:.3}", reuse_rate(c)),
            format!("{:.4}", c.availability()),
        ]);
    }
    r.check("every cell answered requests", cells.iter().all(|c| c.requests > 0));
    // Fault tolerance: under deterministic crash injection the replicated
    // fleet must stay fully available (crashes strike before any response
    // byte, so the balancer's failover hides every one), the supervisor
    // must actually have healed the crash-looping replica, and no direct
    // cell may report client-visible errors either.
    let chaos = cells.iter().find(|c| c.mode == "chaos").expect("chaos cell ran");
    r.check(
        format!(
            "chaos cell availability is flat at 1.0 ({:.4}, {} errors, {} sheds)",
            chaos.availability(),
            chaos.errors,
            chaos.sheds
        )
        .as_str(),
        chaos.errors == 0,
    );
    r.check(
        format!("chaos cell healed crashes ({} restarts)", chaos.restarts).as_str(),
        chaos.restarts >= 1,
    );
    r.check("no cell saw client-visible errors", cells.iter().all(|c| c.errors == 0));
    // `connects == clients` means every client kept its one connection for
    // the whole cell — keep-alive never dropped it. This covers the idle
    // fleets too: a reaped parked connection would show up as a fleet
    // error or an extra dial.
    r.check(
        "keep-alive holds connections (no re-dials in request or idle_fleet cells)",
        cells
            .iter()
            .filter(|c| c.mode == "request" || c.mode == "idle_fleet")
            .all(|c| c.connects == c.clients),
    );
    // Bounded tail under a 4x larger parked fleet: the reactor's per-turn
    // work scales with *ready* connections, not resident ones. The bar is a
    // loose one (3x plus 10 ms of scheduling noise) and the label says so.
    let idle_p99 = |clients: usize| {
        cells
            .iter()
            .find(|c| c.mode == "idle_fleet" && c.clients == clients)
            .map_or(f64::INFINITY, |c| c.latency_ms.p99)
    };
    let (idle256, idle1024) = (idle_p99(256 + 16), idle_p99(1024 + 16));
    r.check(
        format!(
            "epoll p99 at 1024 parked conns <= 3x its p99 at 256 + 10 ms ({idle256:.2} -> {idle1024:.2} ms)"
        )
        .as_str(),
        idle1024 <= idle256 * 3.0 + 10.0,
    );
    r.print();

    let json = render_json(&opts, bodies.len(), n_threads, &cells);
    std::fs::write("BENCH_serve.json", json).expect("write BENCH_serve.json");
    eprintln!("[serve_load] wrote BENCH_serve.json, total elapsed {:?}", started.elapsed());
}

/// Locates the `doduo-served` binary the replica fleets spawn:
/// `DODUO_SERVED_BIN`, then a sibling of this executable, then a cargo
/// build of it (offline workspace build) as a last resort.
fn served_binary() -> PathBuf {
    if let Ok(p) = std::env::var("DODUO_SERVED_BIN") {
        return PathBuf::from(p);
    }
    let me = std::env::current_exe().expect("current_exe");
    let dir = me.parent().expect("bin dir").to_path_buf();
    let sibling = dir.join(format!("doduo-served{}", std::env::consts::EXE_SUFFIX));
    if sibling.exists() {
        return sibling;
    }
    eprintln!("[serve_load] building doduo-served for the replicated cells ...");
    let release = dir.ends_with("release");
    let mut cmd = std::process::Command::new("cargo");
    cmd.args(["build", "-p", "doduo-served"]);
    if release {
        cmd.arg("--release");
    }
    let built = cmd.status().map(|s| s.success()).unwrap_or(false);
    assert!(
        built && sibling.exists(),
        "cannot find or build a doduo-served binary for the replicated cells; \
         set DODUO_SERVED_BIN or `cargo build --release -p doduo-served` first"
    );
    sibling
}

/// One replicated cell: `replicas` real daemon processes (same checkpoint)
/// behind an in-process balancer, driven by the closed-loop clients.
/// `chaos` assigns per-replica fault specs. Returns the trial plus the
/// supervisor's restart count.
#[allow(clippy::too_many_arguments)]
fn run_balanced_cell(
    served_bin: &std::path::Path,
    ckpt: &std::path::Path,
    port_dir: &std::path::Path,
    bodies: &[String],
    replicas: usize,
    chaos: &[(usize, &str)],
    clients: usize,
    duration: Duration,
) -> (Trial, u64) {
    let mut per_replica_args: Vec<Vec<String>> = vec![Vec::new(); replicas];
    for (idx, spec) in chaos {
        per_replica_args[*idx].extend(["--chaos".to_string(), (*spec).to_string()]);
    }
    let sup = SupervisorConfig {
        common_args: vec![
            "--checkpoint".into(),
            ckpt.to_str().expect("utf8").into(),
            "--workers".into(),
            "2".into(),
            "--threads".into(),
            "1".into(),
        ],
        per_replica_args,
        port_dir: port_dir.to_path_buf(),
        seed: 7,
        ..SupervisorConfig::new(served_bin.to_path_buf(), replicas)
    };
    let cfg = BalanceConfig {
        addr: "127.0.0.1:0".into(),
        supervisor: Some(sup),
        seed: 7,
        ..BalanceConfig::default()
    };
    let balancer = Balancer::bind(cfg).expect("bind balancer");
    let addr = balancer.addr().to_string();
    let handle = balancer.handle();
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| balancer.run());
        // Wait for the fleet to come up before opening the floodgates.
        let deadline = Instant::now() + Duration::from_secs(120);
        while handle.ready_replicas() < replicas {
            assert!(Instant::now() < deadline, "replica fleet never became ready");
            std::thread::sleep(Duration::from_millis(25));
        }
        let trial = run_request_cell(&addr, bodies, clients, duration);
        let restarts = handle.total_restarts();
        handle.shutdown();
        runner.join().expect("balancer thread").expect("balancer ran cleanly");
        (trial, restarts)
    })
}

/// Fraction of requests that rode an already-open connection, not counting
/// each client's unavoidable first dial: `1 − (connects − clients) /
/// requests`. Exactly 1.0 means keep-alive never dropped a connection
/// (zero re-dials); anything lower measures reconnect churn.
fn reuse_rate(c: &Cell) -> f64 {
    if c.requests == 0 {
        return 0.0;
    }
    1.0 - (c.connects.saturating_sub(c.clients) as f64 / c.requests as f64).min(1.0)
}

fn render_json(
    opts: &ExpOptions,
    corpus_tables: usize,
    n_threads: usize,
    cells: &[Cell],
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"serve\",\n");
    out.push_str(&format!("  \"scale\": \"{:?}\",\n", opts.scale).to_lowercase());
    out.push_str(&format!("  \"seed\": {},\n", opts.seed));
    out.push_str(&doduo_bench::stages::HostMeta::detect(opts.scale).json_line());
    out.push_str(&format!("  \"corpus_tables\": {corpus_tables},\n"));
    out.push_str(&format!("  \"max_threads\": {n_threads},\n"));
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"topology\": \"{}\", \"mode\": \"{}\", \"workers\": {}, \"policy\": \"eager\", \
             \"max_delay_ms\": {MAX_DELAY_MS}, \"replicas\": {}, \"clients\": {}, \"requests\": {}, \
             \"connects\": {}, \"sheds\": {}, \"errors\": {}, \"restarts\": {}, \
             \"availability\": {:.4}, \"conn_reuse_rate\": {:.4}, \"secs\": {:.3}, \
             \"tables_per_sec\": {:.3}, \
             \"latency_ms\": {{\"mean\": {:.3}, \"p50\": {:.3}, \"p99\": {:.3}, \
             \"max\": {:.3}}}}}{}\n",
            c.topology,
            c.mode,
            c.workers,
            c.replicas,
            c.clients,
            c.requests,
            c.connects,
            c.sheds,
            c.errors,
            c.restarts,
            c.availability(),
            reuse_rate(c),
            c.secs,
            c.tables_per_sec,
            c.latency_ms.mean,
            c.latency_ms.p50,
            c.latency_ms.p99,
            c.latency_ms.max,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}
