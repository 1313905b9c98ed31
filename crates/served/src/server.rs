//! The daemon: a readiness-driven connection front end feeding a single
//! dispatcher thread that drains the batching queue into the batched
//! annotation engine.
//!
//! ## Threads
//!
//! ```text
//! reactor × 1 (caller's thread, epoll)   owns the listener and every
//!   │        connection, streams included; parses requests sans-IO as
//!   │        bytes arrive; queue-free endpoints (/v1/stats, probes)
//!   │        answered inline; /v1/annotate and each /v1/annotate_stream
//!   │        table decoded, tokenized (cache) and pushed to the batching
//!   │        queue right here
//!   ├── dispatcher × 1       wait for budget/deadline → flatten jobs
//!   │        → annotate_groups_each (fans micro-batches across engine
//!   │          threads) → the engine callback renders each /v1/annotate
//!   │          response when its last table completes, and each stream
//!   │          table's line as it completes, and routes it back (eventfd
//!   │          wakes the reactor to write)
//!   └── loader × 1           /v1/model only: strict-loads an uploaded
//!            checkpoint and builds its engine, one upload at a time, and
//!            routes the answer back like the dispatcher does
//! ```
//!
//! The reactor never blocks on the engine and no other thread touches a
//! socket. Tokenizing before the queue push keeps the dispatcher's serial
//! section to the packed forward passes. All threads are scoped:
//! [`Server::run`] returns only after the loader and the dispatcher have
//! exited, so shutdown is a real barrier — in-flight requests get answers,
//! queued jobs get drained, and the process can exit 0.
//!
//! ## Streaming
//!
//! `POST /v1/annotate_stream` reads a chunked (or length-framed) body carrying
//! a whitespace-separated sequence of table JSON objects and writes back a
//! chunked NDJSON response: one annotation object per table, in input
//! order, each emitted as soon as its micro-batch flushes. Every result
//! line is byte-identical to the single-table `/v1/annotate` (and offline
//! `--oneshot`) body for the same table. A stream is a state of its
//! reactor connection; `StreamSession` is the socket-free half that
//! splits documents, submits tables under backpressure and orders results.
//!
//! ## Model lifecycle
//!
//! The engine is not fixed at startup: every request captures the current
//! [`VersionedEngine`] `Arc` when it is serialized (a stream: when it
//! opens), jobs carry it through the queue, and the dispatcher partitions
//! each flush by engine identity — so `POST /v1/model` can blue/green-swap
//! a new checkpoint in between micro-batches while in-flight work finishes
//! on the model it started with. See [`crate::lifecycle`].
//!
//! ## Shutdown
//!
//! `POST /v1/shutdown` (or [`ServerHandle::shutdown`]) sets one atomic
//! flag. The reactor stops accepting and drains — open streams are told,
//! flush what they had submitted and end in-band; the dispatcher drains what
//! is queued, answers it, and exits; the loader exits when the reactor (and
//! with it the upload queue's sender) is gone.

use crate::chaos::{ChaosConfig, ChaosPlan, ChaosState};
use crate::handler::{HttpRequest, HttpResponse};
use crate::http::{
    error_envelope, render_response, write_chunk, write_last_chunk, BodyFraming, Head,
    MAX_BODY_BYTES,
};
use crate::json::{
    annotation_to_json, annotations_response, table_from_json, Json, StreamSplitter,
};
use crate::lifecycle::{Lifecycle, VersionedEngine};
use crate::queue::{BatchPolicy, PushRejected, SharedBatcher};
use crate::reactor::{
    admit, BodyEnd, Dispatch, Driver, Next, Reactor, ReactorConfig, Router, StreamHooks, Ticket,
};
use crate::stats::{ModelStatus, ServerStats};
use doduo_core::{AnnotatorBundle, TableAnnotation};
use doduo_serve::{BatchAnnotator, BatchConfig};
use doduo_table::{SerializedTable, Table};
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Parsed-but-not-yet-queued tables a stream may buffer (read-ahead cap).
const STREAM_WINDOW: usize = 64;
/// How soon a stream with nothing in flight (no result of its own to wake
/// it) retries a push that bounced off a full queue.
const QUEUE_RETRY: Duration = Duration::from_millis(10);
/// `Retry-After` hint (seconds) on backpressure 503s.
const RETRY_AFTER_SECS: u64 = 1;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// The batching queue's flush deadline and bound.
    pub policy: BatchPolicy,
    /// Engine knobs (micro-batch cuts — also the queue's flush budget —,
    /// worker threads, tokenization cache).
    pub engine: BatchConfig,
    /// Maximum concurrent connections; beyond it new ones get 503+close.
    pub max_connections: usize,
    /// Wall-clock bound on reading one request (head + body) once its
    /// first byte has arrived; a slower client gets 408 and is closed so
    /// it cannot hold a connection slot.
    pub request_deadline: Duration,
    /// End an `/annotate_stream` session in-band after this long without a
    /// completed document, an accepted push or an emitted line.
    pub stream_idle_timeout: Duration,
    /// Deterministic fault injection (`--chaos`), for exercising the
    /// replicated-serving failure paths. `None` in production. One plan is
    /// drawn per `/v1/annotate`, on the reactor thread, in arrival order; a
    /// delayed response waits on the reactor's timer heap, so a delay
    /// holds its own connection and no thread.
    ///
    /// **Crash faults call `std::process::exit`** — only enable
    /// `crash_after` on a daemon running in its own process (the
    /// `doduo-balance` chaos tests), never on an in-process test server.
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            policy: BatchPolicy::default(),
            engine: BatchConfig::default(),
            max_connections: 1024,
            request_deadline: Duration::from_secs(10),
            stream_idle_timeout: Duration::from_secs(30),
            chaos: None,
        }
    }
}

/// How a queued job's annotations are delivered.
enum Reply {
    /// This job's single table, rendered as its stream's result line and
    /// routed to its connection as soon as its micro-batch completes.
    Stream {
        /// The table's position in its stream (for in-order emission).
        index: usize,
        /// The reactor connection the stream runs on.
        ticket: Ticket,
        /// The reactor's completion queue.
        router: Arc<Router>,
    },
    /// The rendered 200 response routed straight back to the reactor when
    /// the job's last table completes (`/v1/annotate` — nothing blocks
    /// waiting, so in-flight requests are bounded by connections).
    Reactor {
        /// The reactor connection awaiting this response.
        ticket: Ticket,
        /// The reactor's completion queue.
        router: Arc<Router>,
        /// Echo the client's `{"tables": [...]}` framing in the response.
        wrapped: bool,
        /// Request receive time, for the latency histogram on completion.
        t0: Instant,
        /// `(tables, seqs, tokens)` recorded with the completion.
        counts: (u64, u64, u64),
        /// The request's injected faults: `reset` tears the rendered
        /// response, `delay` holds it back (`crash` fired before the push).
        chaos: Option<ChaosPlan>,
    },
}

/// One queued annotation job: serialized tables, the engine captured when
/// the request was serialized (hot-swap atomicity: the job runs on exactly
/// this engine, whatever swaps land meanwhile), and the delivery route.
struct Job {
    groups: Vec<Vec<SerializedTable>>,
    engine: Arc<VersionedEngine>,
    reply: Reply,
}

struct Shared {
    shutdown: AtomicBool,
    /// True once the engine is built and the daemon is accepting work —
    /// the readiness half of the liveness/readiness split (`/readyz`).
    ready: AtomicBool,
    connections: AtomicUsize,
    queue: SharedBatcher<Job>,
    stats: ServerStats,
    started: Instant,
    chaos: Option<ChaosState>,
    /// The reactor's completion queue, installed while [`Server::run`]
    /// serves so shutdown can wake `epoll_wait` immediately.
    waker: Mutex<Option<Arc<Router>>>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Closes the queue (the dispatcher drains it and exits), raises the
    /// flag the reactor and the routes read, and wakes the reactor.
    fn request_shutdown(&self) {
        self.queue.close();
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(router) = self.waker.lock().expect("waker lock").as_ref() {
            router.nudge();
        }
    }
}

/// A clonable remote control for a running server (shutdown + stats).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Requests graceful shutdown; [`Server::run`] returns once all threads
    /// finish.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Aggregate serving counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }
}

/// A bound (but not yet serving) daemon.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    cfg: ServeConfig,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener. Serving starts with [`Server::run`].
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            ready: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            queue: SharedBatcher::new(cfg.policy.clone(), &cfg.engine),
            stats: ServerStats::default(),
            started: Instant::now(),
            chaos: cfg.chaos.clone().map(ChaosState::new),
            waker: Mutex::new(None),
        });
        Ok(Server { listener, addr, cfg, shared })
    }

    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A remote control usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Serves until shutdown. Blocks the calling thread; the other threads
    /// are scoped inside, so when this returns the daemon is fully stopped.
    ///
    /// `bundle` becomes model version 1; `POST /v1/model` hot-swaps later
    /// versions in without touching this call.
    pub fn run(&self, bundle: Arc<AnnotatorBundle>) {
        let lifecycle = Lifecycle::new(bundle, self.cfg.engine.clone());
        self.listener.set_nonblocking(true).expect("nonblocking listener");
        // The engine exists and threads are about to serve: ready for
        // traffic. `/readyz` flips back to 503 once shutdown is requested.
        self.shared.ready.store(true, Ordering::SeqCst);
        let shared = &self.shared;
        let lifecycle = &lifecycle;
        let cfg = &self.cfg;
        std::thread::scope(|scope| {
            scope.spawn(move || dispatcher_loop(shared));
            let (uploads, upload_rx) = mpsc::channel::<Upload>();
            let driver = EpollDriver { listener: &self.listener, shared, lifecycle, cfg, uploads };
            let rcfg =
                ReactorConfig { request_deadline: cfg.request_deadline, ..Default::default() };
            let mut reactor = Reactor::new(rcfg, driver).expect("epoll reactor setup");
            reactor.set_listener(self.listener.as_raw_fd()).expect("register listener");
            let router = reactor.router();
            *shared.waker.lock().expect("waker lock") = Some(Arc::clone(&router));
            scope.spawn(move || loader_loop(shared, lifecycle, &upload_rx, &router));
            if let Err(e) = reactor.run(&shared.shutdown, Duration::from_secs(5)) {
                eprintln!("[served] reactor error: {e}");
                shared.request_shutdown();
            }
            *shared.waker.lock().expect("waker lock") = None;
            // The reactor owns the driver and with it the upload queue's only
            // sender: dropping it ends the loader's blocking `recv`.
            drop(reactor);
        });
    }
}

// ----------------------------------------------------------- epoll driver

/// A `POST /v1/model` body for the loader thread, and the connection
/// waiting for its answer.
type Upload = (Ticket, Vec<u8>);

/// The [`Driver`] wiring the reactor into the daemon: accept + admission
/// control, `/v1` routing, stream sessions, and stats.
struct EpollDriver<'s> {
    listener: &'s TcpListener,
    shared: &'s Shared,
    lifecycle: &'s Lifecycle,
    cfg: &'s ServeConfig,
    uploads: mpsc::Sender<Upload>,
}

impl<'s> Driver<TcpStream> for EpollDriver<'s> {
    type Stream = StreamSession<'s>;

    fn accept(&self) -> std::io::Result<Option<TcpStream>> {
        let (shared, stats) = (self.shared, &self.shared.stats);
        let cap = self.cfg.max_connections;
        admit(self.listener, &shared.connections, cap, &stats.conns_accepted, &stats.conns_rejected)
    }

    fn open_stream(
        &self,
        head: &Head,
        ticket: Ticket,
        prior_requests: u64,
    ) -> Option<StreamSession<'s>> {
        // A stream head with no body framing is an ordinary (and bad)
        // request: `dispatch` answers it 400.
        if head.method != "POST"
            || head.path != "/v1/annotate_stream"
            || head.framing == BodyFraming::None
        {
            return None;
        }
        if prior_requests > 0 {
            self.shared.stats.keepalive_reused.fetch_add(1, Ordering::Relaxed);
        }
        Some(StreamSession {
            shared: self.shared,
            engine: self.lifecycle.current(),
            idle_timeout: self.cfg.stream_idle_timeout,
            ticket,
            router: self.router(),
            splitter: StreamSplitter::new(MAX_BODY_BYTES),
            pending: VecDeque::new(),
            done: BTreeMap::new(),
            submitted: 0,
            emitted: 0,
            input_done: false,
            error: None,
            ended: false,
            last_progress: Instant::now(),
        })
    }

    fn dispatch(&self, ticket: Ticket, req: HttpRequest, prior_requests: u64) -> Dispatch {
        if prior_requests > 0 {
            self.shared.stats.keepalive_reused.fetch_add(1, Ordering::Relaxed);
        }
        // While shutting down the daemon, not the client, ends keep-alive.
        let shutting = self.shared.shutting_down();
        match (req.method.as_str(), req.path.as_str()) {
            // The engine-bound route never blocks the reactor: tokenize and
            // push to the batching queue right here, and let the
            // dispatcher's engine callback route the finished response back
            // through the completion channel.
            ("POST", "/v1/annotate") => {
                // This request's injected faults, drawn in arrival order. A
                // crash fires before any byte of a response exists, which is
                // exactly the failure a balancer may safely retry.
                let plan = self.shared.chaos.as_ref().map(ChaosState::on_annotate);
                if plan.is_some_and(|p| p.crash) {
                    eprintln!("[served] chaos: crash_after reached; exiting before response");
                    std::process::exit(86);
                }
                let router = self.router();
                match annotate_submit(self.shared, self.lifecycle, &router, ticket, plan, &req.body)
                {
                    None => Dispatch::Queued,
                    Some(resp) => Dispatch::Respond(resp.close_if(shutting)),
                }
            }
            // A model upload builds a whole engine (deserialize, possibly
            // requantize), far too slow for the thread that owns every
            // connection: the loader thread takes it.
            ("POST", "/v1/model") => match self.uploads.send((ticket, req.body)) {
                Ok(()) => Dispatch::Queued,
                Err(_) => Dispatch::Respond(
                    HttpResponse::unavailable(
                        "shutting_down",
                        "server is shutting down",
                        RETRY_AFTER_SECS,
                    )
                    .close_if(shutting),
                ),
            },
            // Everything else is queue-free and answered inline.
            _ => Dispatch::Respond(self.route(&req)),
        }
    }

    fn on_request_error(&self) {
        self.shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
    }

    fn on_close(&self) {
        self.shared.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The loader thread: takes `POST /v1/model` uploads one at a time (which
/// also serialises them), installs each, and routes the answer back to the
/// reactor. Never touches a socket. Exits when the reactor, which holds the
/// queue's sender, is gone.
fn loader_loop(
    shared: &Shared,
    lifecycle: &Lifecycle,
    uploads: &mpsc::Receiver<Upload>,
    router: &Router,
) {
    for (ticket, blob) in uploads {
        router.complete(ticket, model_swap_response(shared, lifecycle, &blob), None);
    }
}

// ------------------------------------------------------------- dispatcher

/// Collects the annotations of one whole-request job (`Reply::Reactor`):
/// slots filled by whichever engine thread finishes each table.
struct Collect {
    slots: Mutex<Vec<Option<TableAnnotation>>>,
    left: AtomicUsize,
}

impl Collect {
    fn new(n: usize) -> Collect {
        Collect { slots: Mutex::new((0..n).map(|_| None).collect()), left: AtomicUsize::new(n) }
    }

    /// Files table `li`'s annotation; the call that fills the last open
    /// slot gets every annotation back in request order.
    fn fill(&self, li: usize, ann: TableAnnotation) -> Option<Vec<TableAnnotation>> {
        let mut slots = self.slots.lock().expect("collector lock");
        slots[li] = Some(ann);
        if self.left.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        Some(slots.iter_mut().map(|s| s.take().expect("slot filled")).collect())
    }
}

/// The dispatcher: waits until the queue policy releases a batch, runs the
/// packed forward passes, and routes each table's annotation back the
/// moment its micro-batch completes — streams get a rendered line per
/// table, `/v1/annotate` jobs one response when their last table finishes.
/// Exits when the queue is closed and drained.
///
/// Every job carries the engine it was serialized against, and the flush
/// is partitioned by engine identity (`Arc::ptr_eq`): a hot-swap landing
/// mid-flush means jobs from both sides of the swap share one batch, and
/// each partition runs on exactly the model its requests captured. That is
/// the swap-atomicity contract — no request is ever answered by a blend of
/// two models, and `x-model-version` always names the weights that
/// produced the bytes. Outside a swap there is exactly one partition and
/// the batching behavior is unchanged.
fn dispatcher_loop(shared: &Shared) {
    while let Some((mut jobs, reason)) = shared.queue.wait_for_batch() {
        let counts: Vec<usize> = jobs.iter().map(|j| j.groups.len()).collect();
        // Group job indices by captured engine (at most two partitions in
        // practice — the models on either side of a swap).
        let mut partitions: Vec<(Arc<VersionedEngine>, Vec<usize>)> = Vec::new();
        for (ji, job) in jobs.iter().enumerate() {
            match partitions.iter_mut().find(|(e, _)| Arc::ptr_eq(e, &job.engine)) {
                Some((_, jis)) => jis.push(ji),
                None => partitions.push((Arc::clone(&job.engine), vec![ji])),
            }
        }
        let total_tables: usize = counts.iter().sum();
        shared.stats.record_batch(reason, total_tables as u64);

        let collectors: Vec<Option<Collect>> = jobs
            .iter()
            .zip(&counts)
            .map(|(job, &n)| match &job.reply {
                Reply::Reactor { .. } => Some(Collect::new(n)),
                Reply::Stream { .. } => None,
            })
            .collect();
        for (engine, jis) in &partitions {
            // Move (not clone) the serialized groups out of this
            // partition's jobs; record which (job, slot) each flattened
            // group routes back to.
            let mut flat: Vec<Vec<SerializedTable>> = Vec::new();
            let mut routes: Vec<(usize, usize)> = Vec::new();
            for &ji in jis {
                for (li, g) in jobs[ji].groups.drain(..).enumerate() {
                    routes.push((ji, li));
                    flat.push(g);
                }
            }
            let jobs = &jobs;
            let collectors = &collectors;
            let routes = &routes;
            engine.engine().annotate_groups_each(&flat, &|fi, ann| {
                let (ji, li) = routes[fi];
                match &jobs[ji].reply {
                    // A stream that ended meanwhile no longer holds its
                    // ticket, and the reactor drops the line.
                    Reply::Stream { index, ticket, router } => {
                        let mut line = annotation_to_json(&ann);
                        line.push('\n');
                        router.line(*ticket, *index, line);
                    }
                    // Whole-request jobs render and route here, on whichever
                    // engine thread finishes the last table — nothing is
                    // blocked waiting, and the reactor drops the response if
                    // the connection closed meanwhile.
                    Reply::Reactor { ticket, router, wrapped, t0, counts, chaos } => {
                        let collector = collectors[ji].as_ref().expect("collector exists for job");
                        let Some(anns) = collector.fill(li, ann) else { return };
                        let (tables, seqs, tokens) = *counts;
                        shared.stats.record_request(t0.elapsed(), tables, seqs, tokens);
                        let body = annotations_response(&anns, *wrapped);
                        let resp = if chaos.is_some_and(|p| p.reset) {
                            eprintln!(
                                "[served] chaos: severing connection after a partial response"
                            );
                            HttpResponse::RawThenClose(render_torn_response(&body))
                        } else {
                            HttpResponse::json(200, body)
                                .with_header("x-model-version", &jobs[ji].engine.label())
                        };
                        // A chaos delay holds the finished response on the
                        // reactor's timer heap, not a thread.
                        let not_before = chaos.and_then(|p| p.delay).map(|d| Instant::now() + d);
                        router.complete(*ticket, resp, not_before);
                    }
                }
            });
        }
    }
}

// ---------------------------------------------------------- inline routes

impl EpollDriver<'_> {
    /// The reactor's completion queue.
    fn router(&self) -> Arc<Router> {
        let router = self.shared.waker.lock().expect("waker lock").clone();
        router.expect("the router is installed while the reactor runs")
    }

    /// Answers one queue-free request on the reactor thread. Routes are the
    /// literal `/v1/...` paths; anything else is a 404.
    fn route(&self, req: &HttpRequest) -> HttpResponse {
        let (shared, lifecycle, cfg) = (self.shared, self.lifecycle, self.cfg);
        match (req.method.as_str(), req.path.as_str()) {
            // Liveness: always 200 while the process can answer at all.
            // The `ready` field mirrors `/readyz` for humans; probes that
            // gate traffic admission must use `/readyz` (which flips to
            // 503).
            ("GET", "/v1/healthz") => {
                let ready = shared.ready.load(Ordering::SeqCst) && !shared.shutting_down();
                HttpResponse::json(
                    200,
                    format!(
                        "{{\"status\":\"ok\",\"ready\":{ready},\"uptime_secs\":{:.3}}}\n",
                        shared.started.elapsed().as_secs_f64()
                    ),
                )
            }
            // Readiness: 200 only while the daemon should receive new
            // traffic (engine up, not shutting down, queue below
            // capacity). The balancer re-admits a restarted replica only
            // after this passes.
            ("GET", "/v1/readyz") => {
                let ready = shared.ready.load(Ordering::SeqCst)
                    && !shared.shutting_down()
                    && shared.queue.depth() < cfg.policy.max_queue_jobs;
                if ready {
                    HttpResponse::json(200, "{\"status\":\"ready\"}\n")
                } else {
                    HttpResponse::unavailable("not_ready", "not ready", RETRY_AFTER_SECS)
                }
            }
            ("GET", "/v1/stats") => {
                let engine = lifecycle.current();
                let model = ModelStatus { model_version: engine.label(), swaps: lifecycle.swaps() };
                HttpResponse::json(
                    200,
                    shared.stats.to_json(
                        shared.started.elapsed(),
                        shared.queue.depth(),
                        engine.engine().cache_stats().hit_rate(),
                        &model,
                    ),
                )
            }
            ("POST", "/v1/shutdown") => {
                shared.request_shutdown();
                HttpResponse::json(200, "{\"status\":\"shutting down\"}\n").close()
            }
            // With body framing the reactor opens a stream instead.
            ("POST", "/v1/annotate_stream") => {
                shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
                shared.stats.record_stream(0, false);
                HttpResponse::error(400, "streaming requires a chunked or content-length body")
            }
            _ => {
                shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
                HttpResponse::error(404, &format!("no route for {} {}", req.method, req.path))
            }
        }
    }
}

// -------------------------------------------------------------- lifecycle

/// `POST /v1/model`: CRC-check and strict-load the uploaded checkpoint blob,
/// build the replacement engine off the hot path, and swap it in between
/// micro-batch flushes. In-flight requests finish on the model they
/// captured; everything admitted after the swap serves the new one.
fn model_swap_response(shared: &Shared, lifecycle: &Lifecycle, body: &[u8]) -> HttpResponse {
    let previous = lifecycle.current().label();
    match lifecycle.swap_blob(body) {
        Ok(engine) => {
            eprintln!("[served] model hot-swap: {} -> {}", previous, engine.label());
            HttpResponse::json(
                200,
                format!(
                    "{{\"status\":\"swapped\",\"model_version\":\"{}\",\"previous\":\"{}\"}}\n",
                    engine.label(),
                    previous
                ),
            )
            .with_header("x-model-version", &engine.label())
        }
        Err(e) => {
            shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
            HttpResponse::error_code(400, "bad_bundle", &format!("checkpoint rejected: {e}"))
        }
    }
}

// --------------------------------------------------------------- annotate

/// The validate/tokenize step every annotate path shares: each table's
/// serialized group plus the request's queue cost `(groups, seqs, tokens)`.
/// Tokenizing on the calling thread warms the shared LRU cache and lets
/// the queue count real tokens, keeping the dispatcher compute-only.
fn tokenize(
    engine: &BatchAnnotator,
    tables: &[Table],
) -> Result<(Vec<Vec<SerializedTable>>, usize, usize), String> {
    // Oversized tables would serialize past the encoder's max_seq; reject
    // rather than panic the dispatcher.
    let max_cols = engine.annotator().model.config().serialize.max_supported_cols();
    if let Some(t) = tables.iter().find(|t| t.n_cols() > max_cols) {
        return Err(format!(
            "table {:?} has {} columns; this model serves at most {max_cols}",
            t.id,
            t.n_cols()
        ));
    }
    let groups: Vec<Vec<SerializedTable>> =
        tables.iter().map(|t| engine.serialize_table(t)).collect();
    let seqs = groups.iter().map(Vec::len).sum();
    let tokens = groups.iter().flatten().map(SerializedTable::len).sum();
    Ok((groups, seqs, tokens))
}

/// One `POST /v1/annotate_stream` session, socket-free: the reactor feeds it
/// decoded body bytes, finished lines and timer events; each event appends
/// whole response chunks to the connection's outbox and says whether more
/// input is wanted. The connection always closes afterwards (the chunked
/// response ends cleanly or after an in-band `{"error": ...}` object).
///
/// One engine per stream, captured when it opens: a hot-swap mid-stream
/// must not change the model under a session. And one place a stream
/// reaches `/v1/stats`, however it ends: the session's `Drop` — the reactor
/// drops it when the response is complete or the connection is lost.
struct StreamSession<'s> {
    shared: &'s Shared,
    engine: Arc<VersionedEngine>,
    idle_timeout: Duration,
    ticket: Ticket,
    router: Arc<Router>,
    /// Caps each document; the stream's total length is unbounded.
    splitter: StreamSplitter,
    /// Parsed, not yet queued: one table's `(groups, seqs, tokens)` each;
    /// the front one is table number `submitted`.
    pending: VecDeque<(Vec<Vec<SerializedTable>>, usize, usize)>,
    /// Finished lines waiting for an earlier table's.
    done: BTreeMap<usize, String>,
    submitted: usize,
    emitted: usize,
    /// No more tables will be parsed (body over, or an error ended intake).
    input_done: bool,
    /// The first error; reported in-band after every result still owed.
    error: Option<String>,
    /// The terminating chunk was written.
    ended: bool,
    /// A completed document, an accepted push, an emitted line — not raw
    /// bytes, so a client dribbling them cannot outlast the idle timeout.
    last_progress: Instant,
}

impl StreamSession<'_> {
    /// Ends intake on an error. What was queued before it still finishes, so
    /// the client gets every usable result before the in-band error object;
    /// what was parsed but not queued does too unless `give_up` (shutdown,
    /// idle timeout).
    fn fail(&mut self, msg: &str, give_up: bool) {
        self.error.get_or_insert_with(|| msg.into());
        self.input_done = true;
        if give_up {
            self.pending.clear();
        }
    }

    /// Splits, decodes and tokenizes the tables `bytes` complete.
    fn take_in(&mut self, bytes: &[u8]) -> Result<(), String> {
        for doc in self.splitter.push(bytes)? {
            self.last_progress = Instant::now();
            let table = table_from_json(&Json::parse(&doc)?)?;
            self.pending.push_back(tokenize(self.engine.engine(), &[table])?);
        }
        Ok(())
    }

    /// Queues parsed tables until the queue pushes back, then says what the
    /// session wants next — ending the response once every table taken in
    /// has been answered. A full queue simply pauses intake: the rejected
    /// job is handed back, so retries never clone the serialized group.
    fn settle(&mut self, out: &mut Vec<u8>) -> Next {
        while let Some((groups, seqs, tokens)) = self.pending.pop_front() {
            let reply = Reply::Stream {
                index: self.submitted,
                ticket: self.ticket,
                router: Arc::clone(&self.router),
            };
            let job = Job { groups, engine: Arc::clone(&self.engine), reply };
            match self.shared.queue.push(job, seqs, tokens) {
                Ok(()) => {
                    self.submitted += 1;
                    self.shared.stats.seqs.fetch_add(seqs as u64, Ordering::Relaxed);
                    self.shared.stats.tokens.fetch_add(tokens as u64, Ordering::Relaxed);
                    self.last_progress = Instant::now();
                }
                Err((PushRejected::Full, job)) => {
                    self.pending.push_front((job.groups, seqs, tokens));
                    break;
                }
                Err((PushRejected::Closed, _)) => self.fail("server is shutting down", true),
            }
        }
        if !self.input_done {
            return if self.pending.len() < STREAM_WINDOW { Next::Read } else { Next::Hold };
        }
        if !self.pending.is_empty() || self.emitted < self.submitted {
            return Next::Hold;
        }
        self.finish(out)
    }

    /// The end of the response: the error, if any, in the HTTP-level error
    /// envelope but in-band as the final NDJSON object (the status line
    /// already went out as 200), then the last chunk.
    fn finish(&mut self, out: &mut Vec<u8>) -> Next {
        if let Some(msg) = &self.error {
            let code = match msg.as_str() {
                "server is shutting down" => "shutting_down",
                "stream idle timeout" => "timeout",
                _ => "stream_error",
            };
            write_chunk(out, error_envelope(code, msg, None).as_bytes()).expect("memory write");
        }
        write_last_chunk(out).expect("memory write");
        self.ended = true;
        Next::Close
    }
}

impl StreamHooks for StreamSession<'_> {
    fn on_body(&mut self, bytes: &[u8], end: Option<BodyEnd>, out: &mut Vec<u8>) -> Next {
        // Bytes behind an error are not looked at.
        if !self.input_done {
            if let Err(msg) = self.take_in(bytes) {
                self.fail(&msg, false);
            }
        }
        match end {
            None => {}
            Some(BodyEnd::Bad(msg)) => self.fail(&msg, false),
            Some(_) if self.splitter.mid_document() => self.fail("stream ended mid-table", false),
            Some(BodyEnd::Truncated) => self.fail("connection closed mid-stream", false),
            Some(BodyEnd::Complete) => self.input_done = true,
        }
        self.settle(out)
    }

    fn on_line(&mut self, index: usize, line: String, out: &mut Vec<u8>) -> Next {
        self.done.insert(index, line);
        while let Some(line) = self.done.remove(&self.emitted) {
            write_chunk(out, line.as_bytes()).expect("memory write");
            self.emitted += 1;
            self.last_progress = Instant::now();
        }
        self.settle(out)
    }

    fn on_timer(&mut self, now: Instant, out: &mut Vec<u8>) -> Next {
        if self.shared.shutting_down() {
            self.fail("server is shutting down", true);
        } else if now.saturating_duration_since(self.last_progress) > self.idle_timeout {
            // Nothing of this stream's moved for a whole timeout, results
            // in flight included: do not wait for them.
            self.fail("stream idle timeout", true);
            return self.finish(out);
        }
        self.settle(out)
    }

    fn deadline(&self, now: Instant) -> Instant {
        // Only a full queue leaves tables pending; with no result of the
        // stream's own in flight to retry the push, the timer must.
        if !self.pending.is_empty() && self.emitted == self.submitted {
            now + QUEUE_RETRY
        } else {
            self.last_progress + self.idle_timeout
        }
    }
}

impl Drop for StreamSession<'_> {
    fn drop(&mut self) {
        // Dropped before its terminating chunk: the connection was lost.
        let ok = self.ended && self.error.is_none();
        let stats = &self.shared.stats;
        stats.record_stream(self.emitted as u64, ok);
        let counter = if ok { &stats.requests_ok } else { &stats.requests_failed };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A decoded, tokenized `/annotate` request ready for the batching queue.
struct PreparedAnnotate {
    groups: Vec<Vec<SerializedTable>>,
    /// Echo the client's `{"tables": [...]}` framing in the response.
    wrapped: bool,
    seqs: usize,
    tokens: usize,
}

/// The decode/validate/tokenize prefix of `/v1/annotate`; errors come back
/// as ready-to-send responses with the failure already counted.
fn prepare_annotate(
    shared: &Shared,
    engine: &BatchAnnotator,
    body: &[u8],
) -> Result<PreparedAnnotate, HttpResponse> {
    let fail = |msg: &str| {
        shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
        HttpResponse::error(400, msg)
    };
    let body = match std::str::from_utf8(body) {
        Ok(s) => s,
        Err(_) => return Err(fail("body is not valid UTF-8")),
    };
    let (tables, wrapped) = match crate::json::tables_from_request(body) {
        Ok(t) => t,
        Err(msg) => return Err(fail(&msg)),
    };
    let (groups, seqs, tokens) = tokenize(engine, &tables).map_err(|msg| fail(&msg))?;
    Ok(PreparedAnnotate { groups, wrapped, seqs, tokens })
}

/// The shared 503 shape for queue backpressure and shutdown.
fn annotate_unavailable(shared: &Shared, code: &str, msg: &str) -> HttpResponse {
    shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
    HttpResponse::unavailable(code, msg, RETRY_AFTER_SECS)
}

/// `POST /v1/annotate`, on the reactor thread: decode, tokenize and push;
/// the job carries the connection's reactor ticket, so the dispatcher's
/// engine callback renders and routes the response when the last table
/// completes, and the reactor is free for the next request the moment the
/// push succeeds. In-flight annotate requests are bounded by connections,
/// which keeps micro-batches full at high fan-in. The engine is captured
/// once, before the queue push: the response is produced by exactly that
/// model and says so in its `x-model-version` header, however many swaps
/// land while the job waits. Returns a response only when the request must
/// be answered immediately (validation failure or queue backpressure).
fn annotate_submit(
    shared: &Shared,
    lifecycle: &Lifecycle,
    router: &Arc<Router>,
    ticket: Ticket,
    chaos: Option<ChaosPlan>,
    body: &[u8],
) -> Option<HttpResponse> {
    let t0 = Instant::now();
    let engine = lifecycle.current();
    let prep = match prepare_annotate(shared, engine.engine(), body) {
        Ok(p) => p,
        Err(resp) => return Some(resp),
    };
    let counts = (prep.groups.len() as u64, prep.seqs as u64, prep.tokens as u64);
    let (seqs, tokens) = (prep.seqs, prep.tokens);
    let job = Job {
        groups: prep.groups,
        engine,
        reply: Reply::Reactor {
            ticket,
            router: Arc::clone(router),
            wrapped: prep.wrapped,
            t0,
            counts,
            chaos,
        },
    };
    match shared.queue.push(job, seqs, tokens) {
        Ok(()) => None,
        Err((PushRejected::Closed, _)) => {
            Some(annotate_unavailable(shared, "shutting_down", "server is shutting down"))
        }
        Err((PushRejected::Full, _)) => {
            shared.stats.rejected_full.fetch_add(1, Ordering::Relaxed);
            Some(annotate_unavailable(shared, "queue_full", "annotation queue is full"))
        }
    }
}

/// Chaos `reset_prob` execution: advertise the full `content-length`,
/// write only half the body, then sever the connection. From the client's
/// side response bytes *did* start flowing, so this failure must never be
/// retried by the balancer — the test suites assert exactly that.
fn render_torn_response(body: &str) -> Vec<u8> {
    let mut out = render_response(200, "OK", "application/json", "", body.as_bytes(), true);
    out.truncate(out.len() - (body.len() - body.len() / 2));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::synthetic_world;
    use crate::http::BodyDecoder;
    use crate::json::table_to_json;

    // ------------------------------------------- StreamSession, no socket

    /// What a session needs around it: the daemon's shared state with a
    /// queue of `max_queue_jobs`, an engine, a router nobody drains, and
    /// request documents.
    struct Rig {
        server: Server,
        lifecycle: Lifecycle,
        router: Arc<Router>,
        docs: Vec<String>,
    }

    const TICKET: Ticket = 7;

    impl std::ops::Deref for Rig {
        type Target = Shared;
        fn deref(&self) -> &Shared {
            &self.server.shared
        }
    }

    impl Rig {
        fn new(max_queue_jobs: usize) -> Rig {
            let world = synthetic_world(true, 42);
            let policy = BatchPolicy { max_queue_jobs, ..BatchPolicy::default() };
            let cfg = ServeConfig { addr: "127.0.0.1:0".into(), policy, ..ServeConfig::default() };
            Rig {
                server: Server::bind(cfg).expect("bind"),
                lifecycle: Lifecycle::new(world.bundle.clone(), BatchConfig::default()),
                router: Arc::new(Router::new().expect("router")),
                docs: world.tables.iter().map(|t| format!("{}\n", table_to_json(t))).collect(),
            }
        }

        /// Opens a session the way the reactor's driver does.
        fn open(&self) -> StreamSession<'_> {
            *self.waker.lock().expect("waker lock") = Some(Arc::clone(&self.router));
            let (uploads, _) = mpsc::channel();
            let driver = EpollDriver {
                listener: &self.server.listener,
                shared: self,
                lifecycle: &self.lifecycle,
                cfg: &self.server.cfg,
                uploads,
            };
            let head = crate::http::parse_head(
                b"POST /v1/annotate_stream HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            );
            let (head, _) = head.expect("well-formed").expect("complete");
            driver.open_stream(&head, TICKET, 0).expect("a stream head")
        }

        /// Takes everything queued, as the dispatcher would.
        fn drain_queue(&self) -> Vec<Job> {
            let mut jobs = Vec::new();
            while self.queue.depth() > 0 {
                jobs.extend(self.queue.wait_for_batch().expect("open").0);
            }
            jobs
        }

        /// Occupies one queue slot with another connection's job.
        fn push_foreign_job(&self) {
            let reply =
                Reply::Stream { index: 0, ticket: TICKET + 1, router: Arc::clone(&self.router) };
            let job = Job { groups: Vec::new(), engine: self.lifecycle.current(), reply };
            assert!(self.queue.push(job, 1, 1).is_ok());
        }

        fn stat(&self, counter: &std::sync::atomic::AtomicU64) -> u64 {
            counter.load(Ordering::Relaxed)
        }
    }

    /// Dechunks a session's output; `.1` says whether the last chunk came.
    fn dechunk(out: &[u8]) -> (String, bool) {
        let mut decoder = BodyDecoder::new(BodyFraming::Chunked);
        let mut body = Vec::new();
        let used = decoder.push(out, &mut body).expect("well-formed chunks");
        assert_eq!(used, out.len());
        (String::from_utf8(body).expect("utf8"), decoder.is_done())
    }

    #[test]
    fn results_completing_in_reverse_order_are_emitted_in_input_order() {
        let rig = Rig::new(1024);
        let mut s = rig.open();
        let mut out = Vec::new();
        let three = rig.docs[..3].concat();
        assert_eq!(s.on_body(three.as_bytes(), None, &mut out), Next::Read);
        assert_eq!(rig.queue.depth(), 3, "every table went straight to the queue");
        assert_eq!(s.on_line(2, "c\n".into(), &mut out), Next::Read);
        assert_eq!(s.on_line(1, "b\n".into(), &mut out), Next::Read);
        assert!(out.is_empty(), "nothing may overtake table 0");
        assert_eq!(s.on_line(0, "a\n".into(), &mut out), Next::Read);
        assert_eq!(dechunk(&out), ("a\nb\nc\n".into(), false));
        assert_eq!(s.on_body(b"", Some(BodyEnd::Complete), &mut out), Next::Close);
        assert_eq!(dechunk(&out), ("a\nb\nc\n".into(), true));

        let stats = &rig.stats;
        assert_eq!(rig.stat(&stats.streams_ok), 0, "recorded when dropped, not before");
        drop(s);
        assert_eq!(rig.stat(&stats.streams_ok), 1);
        assert_eq!(rig.stat(&stats.requests_ok), 1);
        assert_eq!(rig.stat(&stats.stream_tables), 3);
        assert_eq!(rig.stat(&stats.seqs), 3);
        assert!(rig.stat(&stats.tokens) > 0);
    }

    #[test]
    fn a_full_queue_pauses_and_resumes_without_cloning_a_group() {
        let rig = Rig::new(2);
        let mut s = rig.open();
        let mut out = Vec::new();
        let four = rig.docs[..4].concat();
        assert_eq!(s.on_body(four.as_bytes(), None, &mut out), Next::Read);
        assert_eq!((s.submitted, s.pending.len()), (2, 2), "two queued, two bounced");
        let held = s.pending[0].0[0].as_ptr();
        // Its own results are in flight, so they — not a retry timer — wake it.
        let now = Instant::now();
        assert!(s.deadline(now) > now + QUEUE_RETRY);
        assert_eq!(rig.drain_queue().len(), 2);
        assert_eq!(s.on_line(0, "a\n".into(), &mut out), Next::Read);
        assert_eq!((s.submitted, s.pending.len()), (4, 0), "a result resumed the pushes");
        let jobs = rig.drain_queue();
        assert!(matches!(jobs[0].reply, Reply::Stream { index: 2, ticket: TICKET, .. }));
        assert_eq!(jobs[0].groups[0].as_ptr(), held, "the bounced group itself was queued");

        // With nothing of its own in flight only the timer can retry.
        rig.push_foreign_job();
        rig.push_foreign_job();
        for i in 1..4 {
            s.on_line(i, "x\n".into(), &mut out);
        }
        assert_eq!(s.on_body(rig.docs[4].as_bytes(), None, &mut out), Next::Read);
        assert_eq!((s.submitted, s.pending.len()), (4, 1));
        let now = Instant::now();
        assert_eq!(s.deadline(now), now + QUEUE_RETRY);
        rig.drain_queue();
        assert_eq!(s.on_timer(Instant::now(), &mut out), Next::Read);
        assert_eq!((s.submitted, s.pending.len()), (5, 0));
    }

    #[test]
    fn read_ahead_stops_at_the_window() {
        let rig = Rig::new(1);
        rig.push_foreign_job();
        let mut s = rig.open();
        let mut out = Vec::new();
        for i in 0..STREAM_WINDOW {
            let doc = &rig.docs[i % rig.docs.len()];
            let want = if i + 1 < STREAM_WINDOW { Next::Read } else { Next::Hold };
            assert_eq!(s.on_body(doc.as_bytes(), None, &mut out), want, "table {i}");
        }
        assert_eq!((s.submitted, s.pending.len()), (0, STREAM_WINDOW));
        rig.drain_queue();
        assert_eq!(s.on_timer(Instant::now(), &mut out), Next::Read, "room again");
        assert_eq!((s.submitted, s.pending.len()), (1, STREAM_WINDOW - 1));
        assert!(out.is_empty());
    }

    #[test]
    fn an_error_after_table_k_still_emits_the_tables_before_it() {
        let rig = Rig::new(1024);
        let mut s = rig.open();
        let mut out = Vec::new();
        let body = format!("{}{}{{\"columns\": 7}}\n{}", rig.docs[0], rig.docs[1], rig.docs[2]);
        assert_eq!(s.on_body(body.as_bytes(), None, &mut out), Next::Hold, "intake is over");
        assert_eq!(s.submitted, 2, "nothing behind the bad document is taken in");
        assert_eq!(s.on_line(1, "b\n".into(), &mut out), Next::Hold);
        assert_eq!(s.on_line(0, "a\n".into(), &mut out), Next::Close);
        let (text, ended) = dechunk(&out);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(&lines[..2], ["a", "b"]);
        assert!(lines[2].contains("\"code\":\"stream_error\""), "{}", lines[2]);
        assert!(ended && lines.len() == 3);
        drop(s);
        let stats = &rig.stats;
        assert_eq!(rig.stat(&stats.streams_failed), 1);
        assert_eq!(rig.stat(&stats.requests_failed), 1);
        assert_eq!(rig.stat(&stats.stream_tables), 2);
    }

    #[test]
    fn shutdown_flushes_what_was_submitted_then_ends_in_band() {
        let rig = Rig::new(1);
        let mut s = rig.open();
        let mut out = Vec::new();
        let two = rig.docs[..2].concat();
        assert_eq!(s.on_body(two.as_bytes(), None, &mut out), Next::Read);
        assert_eq!((s.submitted, s.pending.len()), (1, 1));
        rig.request_shutdown();
        assert_eq!(s.on_timer(Instant::now(), &mut out), Next::Hold, "one result is owed");
        assert!(s.pending.is_empty(), "what was never queued is given up");
        assert_eq!(s.on_line(0, "a\n".into(), &mut out), Next::Close);
        let (text, ended) = dechunk(&out);
        assert!(text.starts_with("a\n{\"error\":{\"code\":\"shutting_down\""), "{text}");
        assert!(ended);

        // A session the connection is lost under counts as failed too.
        let lost = rig.open();
        drop(lost);
        drop(s);
        assert_eq!(rig.stat(&rig.stats.streams_failed), 2);
    }
}
