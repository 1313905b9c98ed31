//! Closed-loop load bench for a supervised replica fleet (not a paper
//! experiment — the fault-tolerance lever of the ROADMAP's production north
//! star).
//!
//! Every cell spawns real `doduo-served` replica processes behind an
//! in-process balancer (`doduo-balance` as a library) and drives it over
//! real HTTP (`/v1/annotate`): **request** cells at 1, 2 and 4 replicas,
//! then one **chaos** cell with a crash-looping replica. Per-cell p50/p99
//! latency, tables/sec, connection reuse and availability go to
//! `BENCH_serve.json`. A single daemon's throughput and latency are not
//! measured here: `benchmark/run.sh` has `serve_open` and `serve_stream`
//! for that, with the generator pinned away from the daemon and every
//! response checked.
//!
//! Clients are closed-loop (send → wait → repeat) on persistent
//! connections and reconnect only when a request fails, so a
//! `conn_reuse_rate` of exactly 1.0 means keep-alive never dropped one.
//!
//! The checks are clock-independent (no errors, chaos availability 1.0,
//! the supervisor healed the crash loop), so a failed one — or a fleet that
//! never comes up — exits nonzero and leaves `BENCH_serve.json` untouched.
//!
//! Run: `cargo run --release -p doduo-bench --bin serve_load -- --scale quick`

use doduo_balance::{BalanceConfig, BalanceHandle, Balancer, SupervisorConfig};
use doduo_bench::report::Report;
use doduo_bench::{ExpOptions, Scale};
use doduo_served::bootstrap::synthetic_world;
use doduo_served::http::Client;
use doduo_served::json::table_to_json;
use doduo_served::{percentiles, Percentiles};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Cap on how long a shed client honors a server `Retry-After` hint — the
/// hints are in whole seconds, far coarser than bench cell durations.
const MAX_RETRY_AFTER_WAIT: Duration = Duration::from_millis(250);

/// What one closed-loop trial observed.
struct Trial {
    requests: usize,
    connects: usize,
    /// 503 backpressure responses (each honored via `Retry-After`).
    sheds: usize,
    /// Client-visible failures (non-200, non-503).
    errors: usize,
    secs: f64,
    latency_ms: Percentiles,
}

/// One trial against a fleet of `replicas` daemons.
struct Cell {
    mode: &'static str,
    replicas: usize,
    clients: usize,
    /// Replica respawns performed by the supervisor during the cell.
    restarts: u64,
    trial: Trial,
}

impl Cell {
    fn tables_per_sec(&self) -> f64 {
        self.trial.requests as f64 / self.trial.secs
    }

    /// Fraction of answered (non-shed) requests that succeeded.
    fn availability(&self) -> f64 {
        let t = &self.trial;
        if t.requests + t.errors == 0 {
            return 1.0;
        }
        t.requests as f64 / (t.requests + t.errors) as f64
    }

    /// Fraction of requests that rode an already-open connection, not
    /// counting each client's unavoidable first dial: `1 − (connects −
    /// clients) / requests`. Exactly 1.0 means keep-alive never dropped a
    /// connection (zero re-dials); anything lower measures reconnect churn.
    fn reuse_rate(&self) -> f64 {
        let t = &self.trial;
        if t.requests == 0 {
            return 0.0;
        }
        1.0 - (t.connects.saturating_sub(self.clients) as f64 / t.requests as f64).min(1.0)
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

/// The client loop of every cell: `clients` closed-loop threads hammering
/// `addr` for `duration` on persistent connections, each cycling through
/// its own slice of the corpus. 503 backpressure is not an error: the
/// client backs off for the server's `Retry-After` hint (capped — the hints
/// are whole seconds) and the shed is counted separately.
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
                            .expect("connect to the balancer")
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
    let latency_ms = to_ms(percentiles(&all));
    Trial {
        requests: latency_ms.count,
        connects: connects.load(Ordering::Relaxed),
        sheds: sheds.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        secs,
        latency_ms,
    }
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
    eprintln!("[serve_load] building doduo-served for the replica fleets ...");
    let release = dir.ends_with("release");
    let mut cmd = std::process::Command::new("cargo");
    cmd.args(["build", "-p", "doduo-served"]);
    if release {
        cmd.arg("--release");
    }
    let built = cmd.status().map(|s| s.success()).unwrap_or(false);
    assert!(
        built && sibling.exists(),
        "cannot find or build a doduo-served binary for the replica fleets; \
         set DODUO_SERVED_BIN or `cargo build --release -p doduo-served` first"
    );
    sibling
}

/// Stops the balancer however the scope that runs it is left — a panic in
/// a client thread included — so the scope's join cannot wait forever.
struct ShutdownOnDrop(BalanceHandle);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// What every fleet of a run shares: the daemon binary, one checkpoint,
/// a scratch directory for port files, and the request corpus.
struct Fleets {
    served_bin: PathBuf,
    ckpt: PathBuf,
    scratch: PathBuf,
    bodies: Vec<String>,
}

impl Fleets {
    /// One cell: `replicas` real daemon processes (same checkpoint, one
    /// engine thread each) behind an in-process balancer, driven by the
    /// closed-loop clients. `chaos` assigns per-replica fault specs. Fails
    /// if the fleet does not come up or the balancer does not run cleanly.
    fn run_cell(
        &self,
        mode: &'static str,
        replicas: usize,
        chaos: &[(usize, &str)],
        clients: usize,
        duration: Duration,
    ) -> Result<Cell, String> {
        let mut per_replica_args: Vec<Vec<String>> = vec![Vec::new(); replicas];
        for (idx, spec) in chaos {
            per_replica_args[*idx].extend(["--chaos".to_string(), (*spec).to_string()]);
        }
        let sup = SupervisorConfig {
            common_args: vec![
                "--checkpoint".into(),
                self.ckpt.to_str().expect("utf8").into(),
                "--threads".into(),
                "1".into(),
            ],
            per_replica_args,
            port_dir: self.scratch.clone(),
            seed: 7,
            ..SupervisorConfig::new(self.served_bin.clone(), replicas)
        };
        let cfg = BalanceConfig {
            addr: "127.0.0.1:0".into(),
            supervisor: Some(sup),
            seed: 7,
            ..BalanceConfig::default()
        };
        let balancer = Balancer::bind(cfg).map_err(|e| format!("cannot bind the balancer: {e}"))?;
        let addr = balancer.addr().to_string();
        let handle = balancer.handle();
        std::thread::scope(|scope| {
            let _stop = ShutdownOnDrop(handle.clone());
            let runner = scope.spawn(|| balancer.run());
            // Wait for the fleet to come up before opening the floodgates.
            // A balancer that has already returned gave up on its replicas.
            let deadline = Instant::now() + Duration::from_secs(120);
            while handle.ready_replicas() < replicas && !runner.is_finished() {
                if Instant::now() >= deadline {
                    return Err(format!("{replicas}-replica fleet not ready within 120 s"));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            let trial = (!runner.is_finished())
                .then(|| run_request_cell(&addr, &self.bodies, clients, duration));
            let restarts = handle.total_restarts();
            handle.shutdown();
            runner
                .join()
                .expect("balancer thread")
                .map_err(|e| format!("{replicas}-replica fleet: {e}"))?;
            let trial = trial.ok_or("balancer stopped before the fleet was ready")?;
            let cell = Cell { mode, replicas, clients, restarts, trial };
            eprintln!(
                "[serve_load] {mode:>7}, {replicas} replicas, {clients:>2} clients: {:>7.1} \
                 tables/sec, p50 {:>6.2} ms, p99 {:>7.2} ms, availability {:.4}, {restarts} restarts",
                cell.tables_per_sec(),
                cell.trial.latency_ms.p50,
                cell.trial.latency_ms.p99,
                cell.availability(),
            );
            Ok(cell)
        })
    }
}

fn main() {
    let opts = ExpOptions::from_args_for(
        "Replica-fleet load bench: request and chaos cells behind the balancer, writes \
         BENCH_serve.json",
    );
    let started = Instant::now();
    let quick = opts.scale == Scale::Quick;
    let served_bin = served_binary();
    let world = synthetic_world(quick, opts.seed);
    let scratch = std::env::temp_dir().join(format!("serve_load-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let ckpt = scratch.join("bundle.ckpt");
    world.bundle.save_to(ckpt.to_str().expect("utf8 path")).expect("save checkpoint");
    let fleets = Fleets {
        served_bin,
        ckpt,
        scratch,
        bodies: world.tables.iter().map(table_to_json).collect(),
    };
    eprintln!(
        "[serve_load] world ready: {} tables, setup {:?}",
        fleets.bodies.len(),
        started.elapsed()
    );

    let outcome =
        run_cells(&fleets, quick).and_then(|cells| report_and_write(&opts, &fleets, &cells));
    let _ = std::fs::remove_dir_all(&fleets.scratch);
    if let Err(e) = outcome {
        eprintln!("[serve_load] FAILED: {e}");
        std::process::exit(1);
    }
    eprintln!("[serve_load] wrote BENCH_serve.json, total elapsed {:?}", started.elapsed());
}

/// The 1 / 2 / 4-replica request cells, then the chaos cell.
fn run_cells(fleets: &Fleets, quick: bool) -> Result<Vec<Cell>, String> {
    let cell_duration = Duration::from_secs(if quick { 1 } else { 2 });
    let (request_clients, chaos_clients) = if quick { (8, 4) } else { (16, 8) };
    let mut cells = Vec::new();
    for replicas in [1, 2, 4] {
        cells.push(fleets.run_cell("request", replicas, &[], request_clients, cell_duration)?);
    }
    // Three replicas, one crash-looping under deterministic fault
    // injection. Crashes strike before any response byte, so the balancer's
    // failover must hide every one.
    let chaos = [(0, "crash_after=25,seed=7")];
    cells.push(fleets.run_cell("chaos", 3, &chaos, chaos_clients, cell_duration * 3)?);
    Ok(cells)
}

/// Prints the table and its checks; writes `BENCH_serve.json` only if every
/// check passed and the rendered file matches its schema.
fn report_and_write(opts: &ExpOptions, fleets: &Fleets, cells: &[Cell]) -> Result<(), String> {
    let mut r = Report::new(
        "Replica fleets behind doduo-balance (closed-loop clients)",
        &[
            "mode",
            "repl",
            "clients",
            "tables/sec",
            "p50 ms",
            "p99 ms",
            "reuse",
            "avail",
            "restarts",
        ],
    );
    for c in cells {
        r.row(&[
            c.mode.to_string(),
            c.replicas.to_string(),
            c.clients.to_string(),
            format!("{:.1}", c.tables_per_sec()),
            format!("{:.2}", c.trial.latency_ms.p50),
            format!("{:.2}", c.trial.latency_ms.p99),
            format!("{:.3}", c.reuse_rate()),
            format!("{:.4}", c.availability()),
            c.restarts.to_string(),
        ]);
    }
    r.check("every cell answered requests", cells.iter().all(|c| c.trial.requests > 0));
    let chaos = cells.iter().find(|c| c.mode == "chaos").expect("chaos cell ran");
    r.check(
        format!(
            "chaos cell availability is flat at 1.0 ({:.4}, {} errors, {} sheds)",
            chaos.availability(),
            chaos.trial.errors,
            chaos.trial.sheds
        ),
        chaos.trial.errors == 0,
    );
    r.check(
        format!("chaos cell healed crashes ({} restarts)", chaos.restarts),
        chaos.restarts >= 1,
    );
    r.check("no cell saw client-visible errors", cells.iter().all(|c| c.trial.errors == 0));
    // `connects == clients` means every client kept its one connection to
    // the balancer for the whole cell.
    r.check(
        "keep-alive holds connections (no re-dials in request cells)",
        cells.iter().filter(|c| c.mode == "request").all(|c| c.trial.connects == c.clients),
    );
    r.print();
    if !r.all_checks_pass() {
        return Err("a check failed; BENCH_serve.json not written".into());
    }
    let json = render_json(opts, fleets.bodies.len(), cells);
    doduo_bench::artifact::write_checked("BENCH_serve.json", &json)
}

fn render_json(opts: &ExpOptions, corpus_tables: usize, cells: &[Cell]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"serve\",\n");
    out.push_str(&format!("  \"scale\": \"{:?}\",\n", opts.scale).to_lowercase());
    out.push_str(&format!("  \"seed\": {},\n", opts.seed));
    out.push_str(&doduo_bench::stages::HostMeta::detect(opts.scale).json_line());
    out.push_str(&format!("  \"corpus_tables\": {corpus_tables},\n"));
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let t = &c.trial;
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"replicas\": {}, \"clients\": {}, \"requests\": {}, \
             \"connects\": {}, \"sheds\": {}, \"errors\": {}, \"restarts\": {}, \
             \"availability\": {:.4}, \"conn_reuse_rate\": {:.4}, \"secs\": {:.3}, \
             \"tables_per_sec\": {:.3}, \
             \"latency_ms\": {{\"mean\": {:.3}, \"p50\": {:.3}, \"p99\": {:.3}, \
             \"max\": {:.3}}}}}{}\n",
            c.mode,
            c.replicas,
            c.clients,
            t.requests,
            t.connects,
            t.sheds,
            t.errors,
            c.restarts,
            c.availability(),
            c.reuse_rate(),
            t.secs,
            c.tables_per_sec(),
            t.latency_ms.mean,
            t.latency_ms.p50,
            t.latency_ms.p99,
            t.latency_ms.max,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}
