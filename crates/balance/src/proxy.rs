//! The balancer front: accepts client keep-alive connections, proxies each
//! request to a `Ready` replica, and retries *safely*.
//!
//! ## Retry semantics (the idempotency argument)
//!
//! `/v1/annotate` is deterministic and side-effect-free: the same body yields
//! byte-identical responses on every healthy replica (the daemon's
//! byte-identity contract). Re-dispatching a request is therefore safe
//! **iff the client-visible response never started** — the failure classes
//! of [`crate::backend::ForwardError`]:
//!
//! * before-response failures (connect refused, write error, first-byte
//!   timeout or EOF) and *complete* `5xx` responses → retry on another
//!   replica, with capped exponential backoff + seeded jitter between
//!   rounds;
//! * mid-response failures → the answer started flowing; a retry could
//!   deliver a second (or torn) answer, so the balancer aborts with `502`
//!   after **exactly one dispatch**;
//! * complete `4xx` → the request itself is bad; forwarded as-is, no retry.
//!
//! ## Overload
//!
//! At `max_inflight` concurrently proxied requests the balancer sheds with
//! `503 + Retry-After` instead of queueing unboundedly — the same
//! backpressure discipline the replicas use for their annotation queues.
//! Queue depth bounded at every layer means overload degrades throughput,
//! never correctness.

use crate::backend::{Backend, BackendResponse, ForwardError};
use crate::backoff::{Backoff, SplitMix64};
use crate::supervisor::{supervise, Registry, ReplicaState, SupervisorConfig};
use doduo_served::http::{
    read_body, read_head, reason_for, write_continue, write_error, write_read_error,
    write_response, write_unavailable, Head, ReadError,
};
use std::collections::{HashMap, HashSet};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `Retry-After` hint (seconds) on shed and no-replica 503s.
const RETRY_AFTER_SECS: u64 = 1;

/// Balancer configuration.
#[derive(Clone, Debug)]
pub struct BalanceConfig {
    /// Bind address for the client-facing listener (port 0 = ephemeral).
    pub addr: String,
    /// Spawn and supervise replica children (the normal mode).
    pub supervisor: Option<SupervisorConfig>,
    /// Front fixed, externally managed backends instead (tests; fronting
    /// daemons that are already running). Ignored when `supervisor` is set.
    pub static_backends: Vec<String>,
    /// Maximum concurrent client connections (503 + close beyond it).
    pub max_connections: usize,
    /// Maximum concurrently proxied requests before shedding with
    /// `503 + Retry-After`.
    pub max_inflight: usize,
    /// Full passes over the ready-replica set before giving up on a
    /// retryable request.
    pub retry_rounds: u32,
    /// Backend TCP connect timeout.
    pub connect_timeout: Duration,
    /// Backend read timeout — bounds each wait for response bytes, so a
    /// stalled replica turns into a retryable first-byte timeout.
    pub response_timeout: Duration,
    /// First between-rounds retry delay (doubles per round, jittered).
    pub retry_backoff_base: Duration,
    /// Ceiling on the between-rounds retry delay.
    pub retry_backoff_cap: Duration,
    /// Wall-clock bound on reading one client request once its first byte
    /// arrived (slow-loris guard, as in the replicas).
    pub request_deadline: Duration,
    /// Client-socket read timeout (idle keep-alive poll granularity).
    pub read_timeout: Duration,
    /// Honor HTTP keep-alive on client connections.
    pub keep_alive: bool,
    /// Seed for retry jitter.
    pub seed: u64,
}

impl Default for BalanceConfig {
    fn default() -> Self {
        BalanceConfig {
            addr: "127.0.0.1:8878".into(),
            supervisor: None,
            static_backends: Vec::new(),
            max_connections: 1024,
            max_inflight: 256,
            retry_rounds: 3,
            connect_timeout: Duration::from_secs(1),
            response_timeout: Duration::from_secs(30),
            retry_backoff_base: Duration::from_millis(25),
            retry_backoff_cap: Duration::from_millis(500),
            request_deadline: Duration::from_secs(10),
            read_timeout: Duration::from_millis(200),
            keep_alive: true,
            seed: 0,
        }
    }
}

/// Aggregate balancer counters (served at `GET /v1/stats`).
#[derive(Debug, Default)]
pub struct BalanceStats {
    /// Requests answered with a replica's complete response (any status
    /// except retried 5xx).
    pub requests_ok: AtomicU64,
    /// Requests that could not be answered (mid-response aborts, retry
    /// exhaustion).
    pub requests_failed: AtomicU64,
    /// Requests shed at `max_inflight` with `503 + Retry-After`.
    pub sheds: AtomicU64,
    /// Dispatch attempts beyond each request's first.
    pub retries: AtomicU64,
    /// Requests aborted with 502 because response bytes began flowing.
    pub mid_response_aborts: AtomicU64,
    /// Client connections accepted.
    pub conns_accepted: AtomicU64,
    /// Client connections rejected at the connection cap.
    pub conns_rejected: AtomicU64,
    /// Fleet-wide model swaps committed (every ready replica accepted).
    pub model_swaps: AtomicU64,
    /// Model uploads rolled back because some replica rejected or died.
    pub model_swap_failures: AtomicU64,
    /// Restarted replicas caught up to the fleet's current model.
    pub model_catchups: AtomicU64,
}

struct Shared {
    shutdown: AtomicBool,
    connections: AtomicUsize,
    inflight: AtomicUsize,
    conn_seq: AtomicU64,
    registry: Registry,
    stats: BalanceStats,
    started: Instant,
    fatal: Mutex<Option<String>>,
    /// The last model blob every replica accepted — the rollback image for
    /// a failed fan-out and the catch-up image for restarted replicas.
    last_model: Mutex<Option<Vec<u8>>>,
    /// `(replica id, restart count)` pairs known to serve `last_model`
    /// (or the boot checkpoint when no upload happened yet). A restart
    /// changes the key, which is what re-triggers catch-up.
    converged: Mutex<HashSet<(usize, u64)>>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn end_conn(&self) {
        self.connections.fetch_sub(1, Ordering::SeqCst);
    }

    fn stats_json(&self) -> String {
        let replicas: Vec<String> = self
            .registry
            .snapshot()
            .iter()
            .map(|r| {
                format!(
                    "{{\"id\":{},\"state\":\"{}\",\"addr\":{},\"pid\":{},\"restarts\":{}}}",
                    r.id,
                    r.state.as_str(),
                    match &r.addr {
                        Some(a) => format!("\"{a}\""),
                        None => "null".into(),
                    },
                    match r.pid {
                        Some(p) => p.to_string(),
                        None => "null".into(),
                    },
                    r.restarts,
                )
            })
            .collect();
        let s = &self.stats;
        format!(
            "{{\"uptime_secs\":{:.3},\"requests_ok\":{},\"requests_failed\":{},\"sheds\":{},\
             \"retries\":{},\"mid_response_aborts\":{},\"conns_accepted\":{},\
             \"conns_rejected\":{},\"model_swaps\":{},\"model_swap_failures\":{},\
             \"model_catchups\":{},\"restarts\":{},\"permanent_failures\":{},\"replicas\":[{}]}}\n",
            self.started.elapsed().as_secs_f64(),
            s.requests_ok.load(Ordering::Relaxed),
            s.requests_failed.load(Ordering::Relaxed),
            s.sheds.load(Ordering::Relaxed),
            s.retries.load(Ordering::Relaxed),
            s.mid_response_aborts.load(Ordering::Relaxed),
            s.conns_accepted.load(Ordering::Relaxed),
            s.conns_rejected.load(Ordering::Relaxed),
            s.model_swaps.load(Ordering::Relaxed),
            s.model_swap_failures.load(Ordering::Relaxed),
            s.model_catchups.load(Ordering::Relaxed),
            self.registry.total_restarts(),
            self.registry.permanent_failures(),
            replicas.join(","),
        )
    }
}

/// A clonable remote control for a running balancer.
#[derive(Clone)]
pub struct BalanceHandle {
    shared: Arc<Shared>,
}

impl BalanceHandle {
    /// Requests graceful shutdown; [`Balancer::run`] stops children, joins
    /// every thread, and returns.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// The balancer stats document (same JSON as `GET /v1/stats`).
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
    }

    /// Ready replicas right now.
    pub fn ready_replicas(&self) -> usize {
        self.shared.registry.ready_order().len()
    }

    /// Total replica respawns so far.
    pub fn total_restarts(&self) -> u64 {
        self.shared.registry.total_restarts()
    }

    /// Replicas escalated to permanent failure.
    pub fn permanent_failures(&self) -> usize {
        self.shared.registry.permanent_failures()
    }
}

/// A bound (but not yet serving) balancer.
pub struct Balancer {
    listener: TcpListener,
    addr: SocketAddr,
    cfg: BalanceConfig,
    shared: Arc<Shared>,
}

impl Balancer {
    /// Binds the client-facing listener and builds the replica registry.
    pub fn bind(cfg: BalanceConfig) -> std::io::Result<Balancer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let registry = match &cfg.supervisor {
            Some(sup) => Registry::supervised(sup),
            None => Registry::static_backends(&cfg.static_backends),
        };
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            conn_seq: AtomicU64::new(0),
            registry,
            stats: BalanceStats::default(),
            started: Instant::now(),
            fatal: Mutex::new(None),
            last_model: Mutex::new(None),
            converged: Mutex::new(HashSet::new()),
        });
        Ok(Balancer { listener, addr, cfg, shared })
    }

    /// The actually-bound client-facing address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A remote control usable from other threads.
    pub fn handle(&self) -> BalanceHandle {
        BalanceHandle { shared: Arc::clone(&self.shared) }
    }

    /// Serves until shutdown (or until every supervised replica has
    /// permanently failed, which is an error). All threads — the
    /// supervisor and one per client connection — are scoped inside, and
    /// supervised children are stopped before this returns.
    pub fn run(&self) -> Result<(), String> {
        self.listener.set_nonblocking(true).map_err(|e| format!("listener: {e}"))?;
        let shared = &self.shared;
        let cfg = &self.cfg;
        std::thread::scope(|scope| {
            if let Some(sup) = &cfg.supervisor {
                scope.spawn(move || supervise(&shared.registry, sup, &shared.shutdown));
                // Catch-up: a replica restarted after a fleet-wide swap
                // boots on its original checkpoint; re-push the accepted
                // model before mixed-version answers can linger.
                scope.spawn(move || catchup_loop(shared, cfg));
            }
            while !shared.shutting_down() {
                if cfg.supervisor.is_some() && shared.registry.all_failed() {
                    *shared.fatal.lock().expect("fatal lock") =
                        Some("every replica permanently failed".into());
                    shared.request_shutdown();
                    break;
                }
                if let Some(stream) = self.admit() {
                    scope.spawn(move || {
                        conn_loop(stream, shared, cfg);
                        shared.end_conn();
                    });
                }
            }
        });
        match self.shared.fatal.lock().expect("fatal lock").take() {
            Some(msg) => Err(msg),
            None => Ok(()),
        }
    }

    fn admit(&self) -> Option<TcpStream> {
        let shared = &self.shared;
        match self.listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(false).is_err()
                    || stream.set_read_timeout(Some(self.cfg.read_timeout)).is_err()
                    || stream.set_write_timeout(Some(Duration::from_secs(30))).is_err()
                    || stream.set_nodelay(true).is_err()
                {
                    return None;
                }
                if shared.connections.load(Ordering::SeqCst) >= self.cfg.max_connections {
                    shared.stats.conns_rejected.fetch_add(1, Ordering::Relaxed);
                    let mut stream = stream;
                    let _ = write_unavailable(
                        &mut stream,
                        "overloaded",
                        "too many connections",
                        false,
                        RETRY_AFTER_SECS,
                    );
                    return None;
                }
                shared.connections.fetch_add(1, Ordering::SeqCst);
                shared.stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
                Some(stream)
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
                None
            }
            Err(e) => {
                eprintln!("[balance] accept error: {e}");
                std::thread::sleep(Duration::from_millis(50));
                None
            }
        }
    }
}

/// Decrements the inflight gauge on every exit path.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves one client connection: local endpoints answered in place,
/// everything else proxied with failover. Pooled backend connections are
/// per-client-connection (no cross-client sharing, no locking).
fn conn_loop(stream: TcpStream, shared: &Shared, cfg: &BalanceConfig) {
    let mut stream = stream;
    let Ok(clone) = stream.try_clone() else { return };
    let mut reader = BufReader::new(clone);
    let mut backends: HashMap<usize, Backend> = HashMap::new();
    let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
    let mut rng = SplitMix64::new(cfg.seed.wrapping_add(conn_id));
    loop {
        if shared.shutting_down() {
            return;
        }
        let deadline = Instant::now() + cfg.request_deadline;
        let head = match read_head(&mut reader, deadline) {
            Ok(h) => h,
            Err(ReadError::TimedOut) => continue, // idle keep-alive
            Err(e) => {
                let _ = write_read_error(&mut stream, &e);
                return;
            }
        };
        let keep_alive = head.keep_alive && cfg.keep_alive && !shared.shutting_down();

        // Streaming is deliberately not proxied: a chunked response has no
        // single commit point, so the balancer's retry semantics cannot
        // apply. Clients stream against a replica directly.
        if head.method == "POST" && head.path == "/v1/annotate_stream" {
            let _ = write_error(
                &mut stream,
                501,
                "Not Implemented",
                "streaming is not proxied; connect to a replica directly",
                false,
            );
            return;
        }

        if head.expect_continue && write_continue(&mut stream).is_err() {
            return;
        }
        let body = match read_body(&mut reader, head.framing, deadline) {
            Ok(b) => b,
            Err(e) => {
                let _ = write_read_error(&mut stream, &e);
                return;
            }
        };

        // Local endpoints and proxied routes alike have one name, the
        // literal `/v1/...` path the replicas serve.
        let ok = match (head.method.as_str(), head.path.as_str()) {
            (method, path) if !path.starts_with("/v1/") => {
                let msg = format!("no route for {method} {path}");
                write_error(&mut stream, 404, "Not Found", &msg, keep_alive)
            }
            // Balancer liveness: 200 while the front process serves at all.
            ("GET", "/v1/healthz") => {
                let ready = shared.registry.ready_order().len();
                let body = format!(
                    "{{\"status\":\"ok\",\"ready_replicas\":{ready},\"uptime_secs\":{:.3}}}\n",
                    shared.started.elapsed().as_secs_f64()
                );
                write_response(&mut stream, 200, "OK", "application/json", &body, keep_alive)
            }
            // Balancer readiness: can it actually route traffic somewhere?
            ("GET", "/v1/readyz") => {
                if shared.registry.ready_order().is_empty() {
                    write_unavailable(
                        &mut stream,
                        "no_ready_replica",
                        "no ready replica",
                        keep_alive,
                        RETRY_AFTER_SECS,
                    )
                } else {
                    write_response(
                        &mut stream,
                        200,
                        "OK",
                        "application/json",
                        "{\"status\":\"ready\"}\n",
                        keep_alive,
                    )
                }
            }
            ("GET", "/v1/stats") => {
                let body = shared.stats_json();
                write_response(&mut stream, 200, "OK", "application/json", &body, keep_alive)
            }
            // Model uploads are a *fleet* operation, not a proxied request:
            // all ready replicas must accept the new bundle or none keep it.
            ("POST", "/v1/model") => fan_out_model(&mut stream, &body, shared, cfg, keep_alive),
            ("POST", "/v1/shutdown") => {
                let _ = write_response(
                    &mut stream,
                    200,
                    "OK",
                    "application/json",
                    "{\"status\":\"shutting down\"}\n",
                    false,
                );
                shared.request_shutdown();
                return;
            }
            _ => proxy_request(
                &mut stream,
                &head,
                &body,
                &mut backends,
                shared,
                cfg,
                &mut rng,
                keep_alive,
            ),
        };
        if ok.is_err() || !keep_alive {
            return;
        }
    }
}

/// Proxies one request with per-request failover (see module docs for the
/// exact retry rules).
#[allow(clippy::too_many_arguments)]
fn proxy_request(
    stream: &mut TcpStream,
    head: &Head,
    body: &[u8],
    backends: &mut HashMap<usize, Backend>,
    shared: &Shared,
    cfg: &BalanceConfig,
    rng: &mut SplitMix64,
    keep_alive: bool,
) -> std::io::Result<()> {
    if shared.inflight.fetch_add(1, Ordering::SeqCst) >= cfg.max_inflight {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.stats.sheds.fetch_add(1, Ordering::Relaxed);
        return write_unavailable(
            stream,
            "overloaded",
            "balancer overloaded",
            keep_alive,
            RETRY_AFTER_SECS,
        );
    }
    let _guard = InflightGuard(&shared.inflight);

    let path = if head.query.is_empty() {
        head.path.clone()
    } else {
        format!("{}?{}", head.path, head.query)
    };
    let mut backoff = Backoff::new(cfg.retry_backoff_base, cfg.retry_backoff_cap);
    let mut attempts = 0u64;
    let mut last_5xx: Option<BackendResponse> = None;
    for round in 0..cfg.retry_rounds.max(1) {
        if round > 0 {
            std::thread::sleep(backoff.next_delay(rng));
        }
        for (id, addr) in shared.registry.ready_order() {
            if attempts > 0 {
                shared.stats.retries.fetch_add(1, Ordering::Relaxed);
            }
            attempts += 1;
            // Reuse this connection's pooled link to the replica, or dial.
            // A zero-timeout readiness probe weeds out links whose replica
            // restarted while they were parked — those would otherwise
            // burn a retry attempt as a before-response failure.
            let pooled = backends.remove(&id).filter(|b| !b.is_stale());
            let mut be = match pooled {
                Some(b) => b,
                None => match Backend::connect(&addr, cfg.connect_timeout, cfg.response_timeout) {
                    Ok(b) => b,
                    Err(_) => continue,
                },
            };
            match be.forward(&head.method, &path, body) {
                Ok(resp) if resp.status >= 500 => {
                    // A complete 5xx: the replica answered "not me, not
                    // now" — safe to try elsewhere, keep it as the answer
                    // of last resort.
                    if resp.keep_alive {
                        backends.insert(id, be);
                    }
                    last_5xx = Some(resp);
                }
                Ok(resp) => {
                    if resp.keep_alive {
                        backends.insert(id, be);
                    }
                    shared.stats.requests_ok.fetch_add(1, Ordering::Relaxed);
                    return relay(stream, &resp, keep_alive);
                }
                Err(ForwardError::BeforeResponse(_)) => {
                    // Zero response bytes: the link is dead but the
                    // request is untainted. Drop the link, try the next
                    // replica.
                }
                Err(ForwardError::MidResponse(msg)) => {
                    shared.stats.mid_response_aborts.fetch_add(1, Ordering::Relaxed);
                    shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
                    return write_error(
                        stream,
                        502,
                        "Bad Gateway",
                        &format!("replica failed mid-response ({msg}); not retried"),
                        keep_alive,
                    );
                }
            }
        }
    }
    shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
    match last_5xx {
        // Every replica answered 5xx: forward the last one honestly.
        Some(resp) => relay(stream, &resp, keep_alive),
        None => write_unavailable(
            stream,
            "no_healthy_replica",
            "no healthy replica",
            keep_alive,
            RETRY_AFTER_SECS,
        ),
    }
}

/// Writes a replica's complete response back to the client, preserving
/// status, content type, body bytes, and the `Retry-After` /
/// `x-model-version` hints.
fn relay(stream: &mut TcpStream, resp: &BackendResponse, keep_alive: bool) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        resp.status,
        reason_for(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(ra) = resp.retry_after {
        head.push_str(&format!("retry-after: {ra}\r\n"));
    }
    if let Some(mv) = &resp.model_version {
        head.push_str(&format!("x-model-version: {mv}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

// ------------------------------------------------------------- model swap

/// One fresh-dialed model upload to a replica (no pooling: uploads are
/// rare and large, and a stale pooled link must not burn the attempt).
fn upload_model(addr: &str, blob: &[u8], cfg: &BalanceConfig) -> Result<BackendResponse, String> {
    let mut be = Backend::connect(addr, cfg.connect_timeout, cfg.response_timeout)
        .map_err(|e| format!("connect: {e}"))?;
    be.forward("POST", "/v1/model", blob).map_err(|e| format!("{e:?}"))
}

/// The per-replica outcome of one fan-out, rendered into the report JSON.
struct SwapOutcome {
    id: usize,
    outcome: String,
}

/// Fans a model upload to every ready replica with all-or-nothing
/// semantics: the upload stops at the first failure, every replica that
/// already accepted is rolled back to the retained previous blob — or
/// stopped outright when there is nothing to roll back to (a stopped
/// replica is restarted by the supervisor on its boot checkpoint; better
/// down than serving a model the fleet rejected) — and the client gets a
/// per-replica report either way.
fn fan_out_model(
    stream: &mut TcpStream,
    blob: &[u8],
    shared: &Shared,
    cfg: &BalanceConfig,
    keep_alive: bool,
) -> std::io::Result<()> {
    if blob.is_empty() {
        return write_error(stream, 400, "Bad Request", "empty model upload", keep_alive);
    }
    let mut ready = shared.registry.ready_order();
    ready.sort_by_key(|(id, _)| *id);
    if ready.is_empty() {
        return write_unavailable(
            stream,
            "no_ready_replica",
            "no ready replica to install the model on",
            keep_alive,
            RETRY_AFTER_SECS,
        );
    }

    let mut outcomes: Vec<SwapOutcome> = Vec::new();
    let mut accepted: Vec<(usize, String)> = Vec::new();
    let mut version: Option<String> = None;
    let mut failure: Option<String> = None;
    for (id, addr) in &ready {
        match upload_model(addr, blob, cfg) {
            Ok(resp) if resp.status == 200 => {
                version = version.or(resp.model_version);
                accepted.push((*id, addr.clone()));
                outcomes.push(SwapOutcome { id: *id, outcome: "swapped".into() });
            }
            Ok(resp) => {
                failure = Some(format!("replica {id} rejected the bundle (HTTP {})", resp.status));
                outcomes
                    .push(SwapOutcome { id: *id, outcome: format!("rejected ({})", resp.status) });
            }
            Err(e) => {
                failure = Some(format!("replica {id} unreachable mid-upload ({e})"));
                outcomes.push(SwapOutcome { id: *id, outcome: "unreachable".into() });
            }
        }
        if failure.is_some() {
            break; // replicas after the failure are never touched
        }
    }

    let Some(reason) = failure else {
        // Commit: retain the blob for rollback/catch-up and mark every
        // accepter converged at its current restart generation.
        *shared.last_model.lock().expect("model lock") = Some(blob.to_vec());
        let mut converged = shared.converged.lock().expect("converged lock");
        converged.clear();
        for r in shared.registry.snapshot() {
            if accepted.iter().any(|(id, _)| *id == r.id) {
                converged.insert((r.id, r.restarts));
            }
        }
        drop(converged);
        shared.stats.model_swaps.fetch_add(1, Ordering::Relaxed);
        let version = version.unwrap_or_default();
        eprintln!("[balance] model swap committed on {} replica(s): {version}", accepted.len());
        let body = format!(
            "{{\"status\":\"swapped\",\"model_version\":\"{version}\",\"replicas\":[{}]}}\n",
            render_outcomes(&outcomes),
        );
        return write_response(stream, 200, "OK", "application/json", &body, keep_alive);
    };

    // Roll back every accepter so no serving replica keeps the rejected
    // model. Mark untouched replicas explicitly in the report.
    shared.stats.model_swap_failures.fetch_add(1, Ordering::Relaxed);
    let rollback = shared.last_model.lock().expect("model lock").clone();
    for o in &mut outcomes {
        let Some((_, addr)) = accepted.iter().find(|(id, _)| *id == o.id) else { continue };
        o.outcome = match &rollback {
            Some(prev) => match upload_model(addr, prev, cfg) {
                Ok(r) if r.status == 200 => "rolled_back".into(),
                _ => stop_replica(addr),
            },
            None => stop_replica(addr),
        };
    }
    for (id, _) in &ready {
        if !outcomes.iter().any(|o| o.id == *id) {
            outcomes.push(SwapOutcome { id: *id, outcome: "untouched".into() });
        }
    }
    eprintln!("[balance] model swap rolled back: {reason}");
    let body = format!(
        "{{\"error\":{{\"code\":\"swap_rejected\",\"message\":\"{reason}\"}},\"replicas\":[{}]}}\n",
        render_outcomes(&outcomes),
    );
    write_response(stream, 502, "Bad Gateway", "application/json", &body, keep_alive)
}

/// Last-resort rollback: stop a replica that accepted a model the fleet
/// rejected (the supervisor respawns it on the boot checkpoint).
fn stop_replica(addr: &str) -> String {
    match Backend::connect(addr, Duration::from_millis(500), Duration::from_millis(500)) {
        Ok(mut be) => match be.forward("POST", "/v1/shutdown", b"") {
            Ok(_) | Err(ForwardError::MidResponse(_)) => "stopped".into(),
            Err(ForwardError::BeforeResponse(_)) => "inconsistent".into(),
        },
        Err(_) => "inconsistent".into(),
    }
}

fn render_outcomes(outcomes: &[SwapOutcome]) -> String {
    outcomes
        .iter()
        .map(|o| format!("{{\"id\":{},\"outcome\":\"{}\"}}", o.id, o.outcome))
        .collect::<Vec<_>>()
        .join(",")
}

/// Re-pushes the committed model to replicas whose `(id, restarts)` key is
/// new — i.e. freshly (re)started children serving their boot checkpoint
/// while the fleet already swapped. Runs only in supervised mode.
fn catchup_loop(shared: &Shared, cfg: &BalanceConfig) {
    while !shared.shutting_down() {
        std::thread::sleep(Duration::from_millis(100));
        let blob = shared.last_model.lock().expect("model lock").clone();
        for r in shared.registry.snapshot() {
            if r.state != ReplicaState::Ready {
                continue;
            }
            let Some(addr) = r.addr else { continue };
            let key = (r.id, r.restarts);
            if shared.converged.lock().expect("converged lock").contains(&key) {
                continue;
            }
            let Some(blob) = &blob else {
                // No fleet-wide upload yet: the boot checkpoint IS current.
                shared.converged.lock().expect("converged lock").insert(key);
                continue;
            };
            match upload_model(&addr, blob, cfg) {
                Ok(resp) if resp.status == 200 => {
                    shared.converged.lock().expect("converged lock").insert(key);
                    shared.stats.model_catchups.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "[balance] replica {} caught up to the fleet model ({})",
                        r.id,
                        resp.model_version.as_deref().unwrap_or("?"),
                    );
                }
                _ => {} // retry next tick (replica may still be warming up)
            }
        }
    }
}
