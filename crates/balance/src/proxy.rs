//! The balancer front: a second [`Driver`] on the daemon's epoll reactor.
//! It answers the local endpoints inline, proxies every other request to a
//! `Ready` replica on a forwarder thread, and retries *safely*.
//!
//! ## Threads
//!
//! ```text
//! reactor × 1 (caller's thread, epoll)   owns the listener and every client
//!   │        connection (a parked keep-alive one costs no thread); answers
//!   │        /v1/healthz, /v1/readyz, /v1/stats, /v1/shutdown, the 404s,
//!   │        the stream 501 and the max_inflight shed inline
//!   ├── forwarder × in-flight   one per proxied request or /v1/model
//!   │        fan-out: the retry loop below over one pool of replica links,
//!   │        its answer routed back through the reactor's Router
//!   └── supervisor × 1   (supervised mode) replicas spawned, probed,
//!            admitted on the committed fleet model, restarted; ends the
//!            balancer when every replica has failed
//! ```
//!
//! Idle, the balancer is two threads however many clients it parks;
//! `max_inflight` bounds the forwarders.
//!
//! ## One model writer
//!
//! A replica's model is written by whoever holds the registry's fleet model
//! ([`Registry::hold_model`]): a `/v1/model` fan-out, from its ready-set
//! snapshot through commit or rollback, or the supervisor admitting a
//! (re)started replica on the committed blob. A second upload that finds
//! it held is refused at once with `503 swap_in_progress`, so two fan-outs
//! never interleave and every ready replica serves the committed model.
//!
//! ## Retry semantics (the idempotency argument)
//!
//! `/v1/annotate` is deterministic and side-effect-free: the same body yields
//! byte-identical responses on every healthy replica (the daemon's
//! byte-identity contract). Re-dispatching a request is therefore safe
//! **iff the client-visible response never started**. Each replica link is
//! a pooled [`Client`], whose [`Client::exchange`] splits a failure at the
//! first response byte ([`ExchangeError`]):
//!
//! * before-response failures (connect refused, write error, first-byte
//!   timeout or EOF) and *complete* `5xx` responses → retry on another
//!   replica, with capped exponential backoff + seeded jitter between
//!   rounds;
//! * mid-response failures (a bad head, a body cut short of its framing) →
//!   the answer started flowing; a retry could deliver a second (or torn)
//!   answer, so the balancer aborts with `502` after **exactly one
//!   dispatch**;
//! * complete `4xx` → the request itself is bad; forwarded as-is, no retry.
//!
//! ## Overload
//!
//! At `max_inflight` concurrently proxied requests the balancer sheds with
//! `503 + Retry-After` instead of queueing unboundedly — the same
//! backpressure discipline the replicas use for their annotation queues.
//! Queue depth bounded at every layer means overload degrades throughput,
//! never correctness.

use crate::backoff::Backoff;
use crate::supervisor::{supervise, upload_model, Registry, SupervisorConfig};
use doduo_served::http::{Client, ExchangeError, Response};
use doduo_served::json::push_escaped;
use doduo_served::reactor::{
    admit, Dispatch, Driver, NoStream, Reactor, ReactorConfig, Router, Ticket,
};
use doduo_served::{HttpRequest, HttpResponse};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
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
    /// arrived (slow-loris guard: the reactor's `408`, as in the replicas).
    pub request_deadline: Duration,
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
}

struct Shared {
    shutdown: AtomicBool,
    connections: AtomicUsize,
    inflight: AtomicUsize,
    /// Forwards started so far: seeds each one's retry jitter.
    forwards: AtomicU64,
    registry: Registry,
    stats: BalanceStats,
    started: Instant,
    /// Idle keep-alive links to the replicas by replica id, shared by every
    /// forwarder.
    links: Mutex<HashMap<usize, Vec<Client>>>,
    /// The front reactor's completion queue while [`Balancer::run`] serves:
    /// forwarders answer through it, and shutdown nudges it awake.
    waker: Mutex<Option<Arc<Router>>>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Raises the flag the reactor, the supervisor and the routes read, and
    /// wakes the reactor, which waits on its sockets and timers alone.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(router) = self.waker.lock().expect("waker lock").as_ref() {
            router.nudge();
        }
    }

    /// The front reactor's completion queue.
    fn router(&self) -> Arc<Router> {
        let waker = self.waker.lock().expect("waker lock");
        Arc::clone(waker.as_ref().expect("router installed before serving"))
    }

    /// A parked link to replica `id`. A zero-timeout readiness probe weeds
    /// out links whose replica restarted while they were parked — those
    /// would otherwise burn a retry attempt as a before-response failure.
    fn checkout(&self, id: usize) -> Option<Client> {
        let mut links = self.links.lock().expect("links lock");
        let parked = links.get_mut(&id)?;
        std::iter::from_fn(|| parked.pop()).find(|link| !link.is_stale())
    }

    /// Parks a link the replica keeps open for the next forward to reuse.
    fn checkin(&self, id: usize, link: Client) {
        self.links.lock().expect("links lock").entry(id).or_default().push(link);
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
            self.registry.model_catchups(),
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
            forwards: AtomicU64::new(0),
            registry,
            stats: BalanceStats::default(),
            started: Instant::now(),
            links: Mutex::new(HashMap::new()),
            waker: Mutex::new(None),
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
    /// permanently failed, which is an error). The reactor runs on the
    /// calling thread; the supervisor and the forwarders are scoped inside,
    /// and supervised children are stopped before this returns.
    pub fn run(&self) -> Result<(), String> {
        self.listener.set_nonblocking(true).map_err(|e| format!("listener: {e}"))?;
        let (shared, cfg) = (&*self.shared, &self.cfg);
        std::thread::scope(|scope| {
            let driver = ProxyDriver { listener: &self.listener, shared, cfg, scope };
            let rcfg = ReactorConfig {
                request_deadline: cfg.request_deadline,
                dispatch_timeout: dispatch_budget(cfg, shared.registry.snapshot().len()),
                ..ReactorConfig::default()
            };
            let mut reactor = Reactor::new(rcfg, driver).map_err(|e| format!("reactor: {e}"))?;
            reactor
                .set_listener(self.listener.as_raw_fd())
                .map_err(|e| format!("listener: {e}"))?;
            *shared.waker.lock().expect("waker lock") = Some(reactor.router());
            // A supervisor that gives up raises the flag itself; the nudge
            // that wakes the reactor comes when it returns.
            let supervisor = cfg.supervisor.as_ref().map(|sup| {
                scope.spawn(move || {
                    let verdict = supervise(&shared.registry, sup, &shared.shutdown);
                    shared.request_shutdown();
                    verdict
                })
            });
            let served = reactor.run(&shared.shutdown, Duration::from_secs(5));
            shared.request_shutdown();
            let verdict = supervisor
                .map_or(Ok(()), |s| s.join().unwrap_or_else(|_| Err("supervisor panicked".into())));
            served.map_err(|e| format!("reactor: {e}")).and(verdict)
        })
    }
}

/// The reactor's backstop for a forwarded request: the longest a forward
/// can legitimately take, so that only a wedged one is cut. A proxied
/// request makes at most `retry_rounds` passes over the replicas with a
/// backoff between them, each attempt bounded by a connect and a write
/// (`connect_timeout` each) and two waits for response bytes (the first
/// byte, then the rest); a fan-out uploads to each replica once and may
/// roll each back (an upload, or a stop bounded by 2 s).
fn dispatch_budget(cfg: &BalanceConfig, replicas: usize) -> Duration {
    let attempt = (cfg.connect_timeout + cfg.response_timeout) * 2;
    let n = replicas.max(1) as u32;
    let proxy = (attempt * n + cfg.retry_backoff_cap) * cfg.retry_rounds.max(1);
    let fan_out = (attempt * 2 + Duration::from_secs(2)) * n;
    proxy.max(fan_out) + Duration::from_secs(5)
}

/// The balancer's [`Driver`]: admission, the local endpoints answered
/// inline, and everything else handed to a forwarder thread.
struct ProxyDriver<'scope, 'env> {
    listener: &'env TcpListener,
    shared: &'env Shared,
    cfg: &'env BalanceConfig,
    scope: &'scope Scope<'scope, 'env>,
}

impl<'scope, 'env> Driver<TcpStream> for ProxyDriver<'scope, 'env> {
    type Stream = NoStream;

    fn accept(&self) -> std::io::Result<Option<TcpStream>> {
        let (shared, stats) = (self.shared, &self.shared.stats);
        let cap = self.cfg.max_connections;
        admit(self.listener, &shared.connections, cap, &stats.conns_accepted, &stats.conns_rejected)
    }

    fn dispatch(&self, ticket: Ticket, req: HttpRequest, _prior: u64) -> Dispatch {
        let (shared, cfg) = (self.shared, self.cfg);
        // Local endpoints and proxied routes alike have one name, the
        // literal `/v1/...` path the replicas serve.
        let resp = match (req.method.as_str(), req.path.as_str()) {
            (method, path) if !path.starts_with("/v1/") => {
                HttpResponse::error(404, &format!("no route for {method} {path}"))
            }
            // Balancer liveness: 200 while the front process serves at all.
            ("GET", "/v1/healthz") => HttpResponse::json(
                200,
                format!(
                    "{{\"status\":\"ok\",\"ready_replicas\":{},\"uptime_secs\":{:.3}}}\n",
                    shared.registry.ready_order().len(),
                    shared.started.elapsed().as_secs_f64()
                ),
            ),
            // Balancer readiness: can it actually route traffic somewhere?
            ("GET", "/v1/readyz") if shared.registry.ready_order().is_empty() => {
                HttpResponse::unavailable("no_ready_replica", "no ready replica", RETRY_AFTER_SECS)
            }
            ("GET", "/v1/readyz") => HttpResponse::json(200, "{\"status\":\"ready\"}\n"),
            ("GET", "/v1/stats") => HttpResponse::json(200, shared.stats_json()),
            ("POST", "/v1/shutdown") => {
                shared.request_shutdown();
                HttpResponse::json(200, "{\"status\":\"shutting down\"}\n").close()
            }
            // Streaming is deliberately not proxied: a chunked response has
            // no single commit point, so the balancer's retry semantics
            // cannot apply. Clients stream against a replica directly.
            ("POST", "/v1/annotate_stream") => {
                HttpResponse::error(501, "streaming is not proxied; connect to a replica directly")
            }
            // Model uploads are a *fleet* operation, not a proxied request:
            // all ready replicas must accept the new bundle or none keep it.
            ("POST", "/v1/model") => {
                return self.forward(ticket, move || fan_out_model(&req.body, shared, cfg))
            }
            _ => match InflightGuard::enter(&shared.inflight, cfg.max_inflight) {
                Some(guard) => {
                    return self.forward(ticket, move || {
                        let _guard = guard;
                        proxy_request(&req, shared, cfg)
                    })
                }
                None => {
                    shared.stats.sheds.fetch_add(1, Ordering::Relaxed);
                    HttpResponse::unavailable("overloaded", "balancer overloaded", RETRY_AFTER_SECS)
                }
            },
        };
        Dispatch::Respond(resp.close_if(shared.shutting_down()))
    }

    fn on_close(&self) {
        self.shared.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<'scope> ProxyDriver<'scope, '_> {
    /// Runs `work` on a forwarder thread of its own and routes its answer
    /// back to the connection `ticket` addresses.
    fn forward(
        &self,
        ticket: Ticket,
        work: impl FnOnce() -> HttpResponse + Send + 'scope,
    ) -> Dispatch {
        let router = self.shared.router();
        let shared = self.shared;
        // Once shutdown has begun, a connection answered here closes rather
        // than parks again and holds up the reactor's drain.
        let forwarder = move || {
            let resp = work().close_if(shared.shutting_down());
            router.complete(ticket, resp, None)
        };
        match std::thread::Builder::new().spawn_scoped(self.scope, forwarder) {
            Ok(_) => Dispatch::Queued,
            // `work`, and the in-flight slot it holds, went down unrun.
            Err(_) => Dispatch::Respond(HttpResponse::unavailable(
                "overloaded",
                "no thread for the forward",
                RETRY_AFTER_SECS,
            )),
        }
    }
}

/// One slot of the `max_inflight` gauge, released on every exit path.
struct InflightGuard<'a>(&'a AtomicUsize);

impl<'a> InflightGuard<'a> {
    /// Takes a slot, or `None` at the cap (the guard dropped at once gives
    /// its count back).
    fn enter(inflight: &'a AtomicUsize, cap: usize) -> Option<InflightGuard<'a>> {
        let guard = InflightGuard(inflight);
        (inflight.fetch_add(1, Ordering::SeqCst) < cap).then_some(guard)
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Proxies one request with per-request failover (see module docs for the
/// exact retry rules), on its forwarder thread.
fn proxy_request(req: &HttpRequest, shared: &Shared, cfg: &BalanceConfig) -> HttpResponse {
    let path =
        if req.query.is_empty() { req.path.clone() } else { format!("{}?{}", req.path, req.query) };
    let mut rng = StdRng::seed_from_u64(
        cfg.seed.wrapping_add(shared.forwards.fetch_add(1, Ordering::Relaxed)),
    );
    let mut backoff = Backoff::new(cfg.retry_backoff_base, cfg.retry_backoff_cap);
    let mut attempts = 0u64;
    let mut last_5xx: Option<Response> = None;
    for round in 0..cfg.retry_rounds.max(1) {
        if round > 0 {
            std::thread::sleep(backoff.next_delay(&mut rng));
        }
        for (id, addr) in shared.registry.ready_order() {
            if attempts > 0 {
                shared.stats.retries.fetch_add(1, Ordering::Relaxed);
            }
            attempts += 1;
            // Reuse a parked link to the replica, or dial.
            let mut link = match shared.checkout(id) {
                Some(b) => b,
                None => match Client::dial(&addr, cfg.connect_timeout, cfg.response_timeout) {
                    Ok(b) => b,
                    Err(_) => continue,
                },
            };
            match link.exchange(&req.method, &path, &req.body) {
                Ok(resp) => {
                    if resp.keep_alive {
                        shared.checkin(id, link);
                    }
                    if resp.status >= 500 {
                        // A complete 5xx: the replica answered "not me, not
                        // now" — safe to try elsewhere, keep it as the
                        // answer of last resort.
                        last_5xx = Some(resp);
                        continue;
                    }
                    shared.stats.requests_ok.fetch_add(1, Ordering::Relaxed);
                    return relay(resp);
                }
                Err(ExchangeError::BeforeResponse(_)) => {
                    // Zero response bytes: the link is dead but the
                    // request is untainted. Drop the link, try the next
                    // replica.
                }
                Err(ExchangeError::MidResponse(e)) => {
                    shared.stats.mid_response_aborts.fetch_add(1, Ordering::Relaxed);
                    shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
                    let msg = format!("replica failed mid-response ({e}); not retried");
                    return HttpResponse::error(502, &msg);
                }
            }
        }
    }
    shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
    match last_5xx {
        // Every replica answered 5xx: forward the last one honestly.
        Some(resp) => relay(resp),
        None => {
            HttpResponse::unavailable("no_healthy_replica", "no healthy replica", RETRY_AFTER_SECS)
        }
    }
}

/// A replica's complete response, for the client: status, content type,
/// the body bytes exactly, and the `Retry-After` / `x-model-version` hints.
fn relay(resp: Response) -> HttpResponse {
    let content_type = resp.content_type.as_deref().unwrap_or("application/json");
    let mut out = HttpResponse::text(resp.status, content_type, resp.body);
    if let Some(ra) = resp.retry_after {
        out = out.with_header("retry-after", &ra.to_string());
    }
    if let Some(mv) = &resp.model_version {
        out = out.with_header("x-model-version", mv);
    }
    out
}

// ------------------------------------------------------------- model swap

/// The per-replica outcome of one fan-out, rendered into the report JSON.
struct SwapOutcome {
    id: usize,
    outcome: String,
}

/// Fans a model upload to every ready replica with all-or-nothing
/// semantics, holding the fleet model throughout: the upload stops at the
/// first failure, every replica that already accepted is rolled back to the
/// committed blob — or stopped outright while the boot checkpoint is the
/// fleet model (a stopped replica is restarted by the supervisor on it;
/// better down than serving a model the fleet rejected) — and the client
/// gets a per-replica report either way.
fn fan_out_model(blob: &[u8], shared: &Shared, cfg: &BalanceConfig) -> HttpResponse {
    if blob.is_empty() {
        return HttpResponse::error(400, "empty model upload");
    }
    let Some(mut fleet) = shared.registry.hold_model() else {
        let msg = "the fleet model is being written (another upload or a replica admission)";
        return HttpResponse::unavailable("swap_in_progress", msg, RETRY_AFTER_SECS);
    };
    let mut ready = shared.registry.ready_order();
    ready.sort_by_key(|(id, _)| *id);
    if ready.is_empty() {
        let msg = "no ready replica to install the model on";
        return HttpResponse::unavailable("no_ready_replica", msg, RETRY_AFTER_SECS);
    }

    let mut outcomes: Vec<SwapOutcome> = Vec::new();
    let mut accepted: Vec<(usize, String)> = Vec::new();
    let mut version: Option<String> = None;
    let mut failure: Option<String> = None;
    let upload = |addr: &str, blob: &[u8]| {
        upload_model(addr, blob, cfg.connect_timeout, cfg.response_timeout)
    };
    for (id, addr) in &ready {
        match upload(addr, blob) {
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
        *fleet = Some(blob.to_vec());
        shared.stats.model_swaps.fetch_add(1, Ordering::Relaxed);
        let version = version.unwrap_or_default();
        eprintln!("[balance] model swap committed on {} replica(s): {version}", accepted.len());
        return HttpResponse::json(
            200,
            format!(
                "{{\"status\":\"swapped\",\"model_version\":\"{version}\",\"replicas\":[{}]}}\n",
                render_outcomes(&outcomes),
            ),
        );
    };

    // Roll back every accepter so no serving replica keeps the rejected
    // model. Mark untouched replicas explicitly in the report.
    shared.stats.model_swap_failures.fetch_add(1, Ordering::Relaxed);
    for o in &mut outcomes {
        let Some((_, addr)) = accepted.iter().find(|(id, _)| *id == o.id) else { continue };
        o.outcome = match fleet.as_deref() {
            Some(prev) => match upload(addr, prev) {
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
    // The envelope's escaping: the reason quotes a replica's own words.
    let mut body = String::from("{\"error\":{\"code\":\"swap_rejected\",\"message\":");
    push_escaped(&mut body, &reason);
    body.push_str(&format!("}},\"replicas\":[{}]}}\n", render_outcomes(&outcomes)));
    HttpResponse::json(502, body)
}

/// Last-resort rollback: stop a replica that accepted a model the fleet
/// rejected (the supervisor respawns it on the boot checkpoint).
fn stop_replica(addr: &str) -> String {
    match Client::dial(addr, Duration::from_millis(500), Duration::from_millis(500)) {
        Ok(mut link) => match link.exchange("POST", "/v1/shutdown", b"") {
            Ok(_) | Err(ExchangeError::MidResponse(_)) => "stopped".into(),
            Err(ExchangeError::BeforeResponse(_)) => "inconsistent".into(),
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
