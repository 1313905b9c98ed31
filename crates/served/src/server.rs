//! The daemon: a readiness-driven connection front end feeding a single
//! dispatcher thread that drains the batching queue into the batched
//! annotation engine.
//!
//! ## Threads
//!
//! ```text
//! reactor × 1 (caller's thread, epoll)   owns the listener and every
//!   │        connection; parses requests sans-IO as bytes arrive; quick
//!   │        GET endpoints answered inline; /annotate decoded, tokenized
//!   │        (cache) and pushed to the batching queue right here
//!   ├── dispatcher × 1       wait for budget/deadline → flatten jobs
//!   │        → annotate_groups_each (fans micro-batches across engine
//!   │          threads) → the engine callback renders each /annotate
//!   │          response when its last table completes and routes it back
//!   │          (eventfd wakes the reactor to write); streams get
//!   │          per-table sends
//!   └── request worker × W   everything that may block: taken-over
//!            /annotate_stream sessions, /v1/model, /v1/feedback, and
//!            /annotate on a chaos-configured daemon
//! ```
//!
//! The reactor never blocks on the engine, and only a worker that owns a
//! streaming session ever touches a socket. Tokenizing before the queue
//! push keeps the dispatcher's serial section to the packed forward
//! passes. All threads are scoped: [`Server::run`] returns only after every
//! worker and the dispatcher have exited, so shutdown is a real barrier —
//! in-flight requests get answers, queued jobs get drained, and the process
//! can exit 0.
//!
//! ## Streaming
//!
//! `POST /annotate_stream` reads a chunked (or length-framed) body carrying
//! a whitespace-separated sequence of table JSON objects and writes back a
//! chunked NDJSON response: one annotation object per table, in input
//! order, each emitted as soon as its micro-batch flushes. Every result
//! line is byte-identical to the single-table `/annotate` (and offline
//! `--oneshot`) body for the same table. The handling worker multiplexes
//! reading, queue pushes (with backpressure), and result writes on one
//! thread using short read timeouts.
//!
//! ## Model lifecycle
//!
//! The engine is not fixed at startup: every request captures the current
//! [`VersionedEngine`] `Arc` when it is serialized, jobs carry it through
//! the queue, and the dispatcher partitions each flush by engine identity
//! — so `POST /v1/model` can blue/green-swap a new checkpoint in between
//! micro-batches while in-flight work finishes on the model it started
//! with. See [`crate::lifecycle`].
//!
//! ## Shutdown
//!
//! `POST /shutdown` (or [`ServerHandle::shutdown`]) sets one atomic flag.
//! The reactor stops accepting and drains; workers notice at their next
//! work-queue poll (or after the in-flight response) and exit; the
//! dispatcher drains what is queued, answers it, and exits.

use crate::chaos::{ChaosConfig, ChaosPlan, ChaosState};
use crate::handler::{canonical_path, Handler, HttpRequest, HttpResponse};
use crate::http::{
    write_chunk, write_chunked_head, write_continue, write_error, write_last_chunk,
    write_unavailable, BodyFraming, BodyReader, Head, Prefixed, ReadError, MAX_BODY_BYTES,
};
use crate::json::{
    annotation_to_json, annotations_response, table_from_json, Json, StreamSplitter,
};
use crate::lifecycle::{
    finetune_bundle, FeedbackEntry, Lifecycle, VersionedEngine, FINETUNE_BATCH,
};
use crate::queue::{BatchPolicy, PushRejected, SharedBatcher};
use crate::reactor::{Dispatch, Driver, Reactor, ReactorConfig, Router, Ticket};
use crate::stats::{ModelStatus, ServerStats};
use doduo_core::{AnnotatorBundle, TableAnnotation};
use doduo_serve::{BatchAnnotator, BatchConfig};
use doduo_table::{SerializedTable, Table};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Close a parked keep-alive connection after this much idle time.
const CONN_IDLE_TIMEOUT: Duration = Duration::from_secs(75);
/// Read timeout while multiplexing a stream (low so queued results flush
/// promptly even when the client pauses between tables).
const STREAM_POLL: Duration = Duration::from_millis(20);
/// Parsed-but-not-yet-queued tables a stream may buffer (read-ahead cap).
const STREAM_WINDOW: usize = 64;
/// `Retry-After` hint (seconds) on backpressure 503s.
const RETRY_AFTER_SECS: u64 = 1;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// Dynamic micro-batching policy.
    pub policy: BatchPolicy,
    /// Engine knobs (micro-batch cuts, worker threads, tokenization cache).
    pub engine: BatchConfig,
    /// Socket read timeout of a taken-over streaming connection, and the
    /// reactor's grace window: when `request_deadline` expires, a client
    /// whose last byte arrived within this long gets a 408, one silent for
    /// longer is closed without a response.
    pub read_timeout: Duration,
    /// Maximum concurrent connections; beyond it new ones get 503+close.
    pub max_connections: usize,
    /// Request worker threads: they serve what may block (streaming
    /// sessions, `/v1/model`, `/v1/feedback`, chaos runs). At least one —
    /// [`Server::bind`] rejects `0`.
    pub workers: usize,
    /// Wall-clock bound on reading one request (head + body) once its
    /// first byte has arrived; a slower client gets 408 and is closed so
    /// it cannot hold a connection slot.
    pub request_deadline: Duration,
    /// Abort an `/annotate_stream` connection after this long without
    /// input progress or pending results.
    pub stream_idle_timeout: Duration,
    /// Deterministic fault injection (`--chaos`), for exercising the
    /// replicated-serving failure paths. `None` in production.
    ///
    /// **Crash faults call `std::process::exit`** — only enable
    /// `crash_after` on a daemon running in its own process (the
    /// `doduo-balance` chaos tests), never on an in-process test server.
    pub chaos: Option<ChaosConfig>,
    /// Run the background feedback fine-tune loop (`--feedback-finetune`):
    /// fold accumulated `POST /v1/feedback` corrections into a short
    /// column-type fine-tune of a copy of the serving model and hot-swap
    /// the result in. Off by default — the journal still accumulates, but
    /// nothing retrains or self-swaps.
    pub feedback_finetune: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            policy: BatchPolicy::default(),
            engine: BatchConfig::default(),
            read_timeout: Duration::from_millis(200),
            max_connections: 1024,
            workers: 16,
            request_deadline: Duration::from_secs(10),
            stream_idle_timeout: Duration::from_secs(30),
            chaos: None,
            feedback_finetune: false,
        }
    }
}

/// How a queued job's annotations are delivered.
enum Reply {
    /// One send with every table of the request, in request order
    /// (`/annotate` on a blocking worker thread — chaos daemons only).
    Batch(mpsc::Sender<Vec<TableAnnotation>>),
    /// One `(stream_index, annotation)` send for this job's single table,
    /// fired as soon as its micro-batch completes (`/annotate_stream`).
    Stream {
        /// The table's position in its stream (for in-order emission).
        index: usize,
        tx: mpsc::Sender<(usize, TableAnnotation)>,
    },
    /// The rendered 200 response routed straight back to the reactor when
    /// the job's last table completes (`/annotate` — nothing blocks
    /// waiting, so in-flight requests are bounded by connections, not
    /// worker count).
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
        /// The request arrived on a deprecated unprefixed route; the
        /// dispatcher-rendered response carries the `Deprecation` header.
        legacy: bool,
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

    /// Accounting for a connection leaving the daemon (any path).
    fn end_conn(&self) {
        self.connections.fetch_sub(1, Ordering::SeqCst);
    }

    /// Close-before-flag shutdown ordering (see `ServerHandle::shutdown`).
    fn request_shutdown(&self) {
        self.queue.close();
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.notify();
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
        // Order matters: close the queue *before* raising the flag the
        // dispatcher polls, so every job that was accepted is also drained.
        self.shared.request_shutdown();
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
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
    /// Binds the listener. Serving starts with [`Server::run`]. Zero
    /// workers is `InvalidInput`: streams, `/v1/model` and chaos requests
    /// would be accepted and never served.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        if cfg.workers == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "workers must be at least 1",
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            ready: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            queue: SharedBatcher::new(cfg.policy.clone()),
            stats: ServerStats::with_workers(cfg.workers),
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

    /// Serves until shutdown. Blocks the calling thread; all worker threads
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
            if cfg.feedback_finetune {
                scope.spawn(move || finetune_loop(shared, lifecycle));
            }
            let (work_tx, work_rx) = mpsc::channel::<Work>();
            let work_rx = Arc::new(Mutex::new(work_rx));
            let driver =
                EpollDriver { listener: &self.listener, shared, lifecycle, cfg, work: work_tx };
            let rcfg = ReactorConfig {
                request_deadline: cfg.request_deadline,
                idle_timeout: CONN_IDLE_TIMEOUT,
                dispatch_timeout: Duration::from_secs(35),
                write_timeout: Duration::from_secs(30),
                read_grace: cfg.read_timeout,
                ..ReactorConfig::default()
            };
            let mut reactor = Reactor::new(rcfg, driver).expect("epoll reactor setup");
            reactor.set_listener(self.listener.as_raw_fd()).expect("register listener");
            let router = reactor.router();
            *shared.waker.lock().expect("waker lock") = Some(Arc::clone(&router));
            for w in 0..cfg.workers {
                let work_rx = Arc::clone(&work_rx);
                let router = Arc::clone(&router);
                scope
                    .spawn(move || epoll_worker_loop(shared, lifecycle, cfg, &work_rx, &router, w));
            }
            if let Err(e) = reactor.run(&shared.shutdown, Duration::from_secs(5)) {
                eprintln!("[served] reactor error: {e}");
                shared.request_shutdown();
            }
            *shared.waker.lock().expect("waker lock") = None;
            shared.queue.notify();
        });
    }
}

// ----------------------------------------------------------- epoll driver

/// Work items the reactor hands to the request worker threads.
enum Work {
    /// A fully parsed request to answer through the [`Handler`] core.
    Request { ticket: Ticket, req: HttpRequest },
    /// A taken-over streaming connection to serve to completion.
    Stream { stream: TcpStream, head: Head, leftover: Vec<u8> },
}

/// The [`Driver`] wiring the reactor into the daemon: accept + admission
/// control, `/v1` routing, streaming takeover, and stats.
struct EpollDriver<'s> {
    listener: &'s TcpListener,
    shared: &'s Shared,
    lifecycle: &'s Lifecycle,
    cfg: &'s ServeConfig,
    work: mpsc::Sender<Work>,
}

impl<'s> Driver<TcpStream> for EpollDriver<'s> {
    fn accept(&self) -> std::io::Result<Option<TcpStream>> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if self.shared.connections.load(Ordering::SeqCst) >= self.cfg.max_connections {
                    self.shared.stats.conns_rejected.fetch_add(1, Ordering::Relaxed);
                    // Best-effort 503 on the still-blocking fresh socket.
                    let mut stream = stream;
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                    let _ = write_unavailable(
                        &mut stream,
                        "overloaded",
                        "too many connections",
                        false,
                        RETRY_AFTER_SECS,
                    );
                    return Ok(None);
                }
                self.shared.connections.fetch_add(1, Ordering::SeqCst);
                self.shared.stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
                Ok(Some(stream))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => {
                eprintln!("[served] accept error: {e}");
                std::thread::sleep(Duration::from_millis(50));
                Ok(None)
            }
        }
    }

    fn wants_takeover(&self, head: &Head) -> bool {
        head.method == "POST" && canonical_path(&head.path) == "/annotate_stream"
    }

    fn take_over(&self, stream: TcpStream, head: Head, leftover: Vec<u8>, prior_requests: u64) {
        if prior_requests > 0 {
            self.shared.stats.keepalive_reused.fetch_add(1, Ordering::Relaxed);
        }
        if self.work.send(Work::Stream { stream, head, leftover }).is_err() {
            self.shared.end_conn();
        }
    }

    fn dispatch(&self, ticket: Ticket, req: HttpRequest, prior_requests: u64) -> Dispatch {
        if prior_requests > 0 {
            self.shared.stats.keepalive_reused.fetch_add(1, Ordering::Relaxed);
        }
        let keep_policy = !self.shared.shutting_down();
        let canon_is = |p: &str| canonical_path(&req.path) == p;
        if req.method == "POST" && canon_is("/annotate") {
            // The engine-bound route never blocks the reactor: tokenize
            // and push to the batching queue right here, and let the
            // dispatcher's engine callback route the finished response
            // back through the completion channel. Chaos runs are the
            // exception — injected stalls must block a worker thread, so
            // they take the queued blocking path.
            if self.shared.chaos.is_none() {
                let router = self.shared.waker.lock().expect("waker lock").clone();
                if let Some(router) = router {
                    // This fast path bypasses the Handler core, so the
                    // deprecated-alias accounting happens here.
                    let legacy = !req.path.starts_with("/v1");
                    if legacy {
                        self.shared.stats.legacy_route_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    return match annotate_submit(
                        self.shared,
                        self.lifecycle,
                        &router,
                        ticket,
                        legacy,
                        &req.body,
                    ) {
                        None => Dispatch::Queued,
                        Some(resp) => {
                            let resp =
                                if legacy { resp.with_header("deprecation", "true") } else { resp };
                            Dispatch::Respond(apply_keep_policy(resp, keep_policy))
                        }
                    };
                }
            }
            match self.work.send(Work::Request { ticket, req }) {
                Ok(()) => Dispatch::Queued,
                Err(_) => Dispatch::Respond(apply_keep_policy(
                    HttpResponse::unavailable(
                        "shutting_down",
                        "server is shutting down",
                        RETRY_AFTER_SECS,
                    ),
                    keep_policy,
                )),
            }
        } else if req.method == "POST" && (canon_is("/model") || canon_is("/feedback")) {
            // Lifecycle routes run on worker threads: a model upload builds
            // a whole engine (deserialize, possibly requantize), far too
            // slow for the reactor thread that owns every connection.
            match self.work.send(Work::Request { ticket, req }) {
                Ok(()) => Dispatch::Queued,
                Err(_) => Dispatch::Respond(apply_keep_policy(
                    HttpResponse::unavailable(
                        "shutting_down",
                        "server is shutting down",
                        RETRY_AFTER_SECS,
                    ),
                    keep_policy,
                )),
            }
        } else {
            // Everything else is queue-free and answered inline.
            let handler =
                EngineHandler { shared: self.shared, lifecycle: self.lifecycle, cfg: self.cfg };
            Dispatch::Respond(handler.handle(&req))
        }
    }

    fn on_request_error(&self) {
        self.shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
    }

    fn on_close(&self) {
        self.shared.end_conn();
    }
}

/// Forces `connection: close` on a response when the daemon (shutting
/// down), not the client, ends keep-alive.
fn apply_keep_policy(resp: HttpResponse, keep_policy: bool) -> HttpResponse {
    if keep_policy {
        resp
    } else {
        resp.close()
    }
}

/// One request worker: pops parsed requests (or taken-over streams), runs
/// the [`Handler`] core, and routes the response back to the reactor.
/// Never touches a socket except for streaming sessions, which it owns
/// end-to-end.
fn epoll_worker_loop(
    shared: &Shared,
    lifecycle: &Lifecycle,
    cfg: &ServeConfig,
    work_rx: &Mutex<mpsc::Receiver<Work>>,
    router: &Router,
    worker: usize,
) {
    loop {
        let work = {
            let rx = work_rx.lock().expect("work queue lock");
            rx.recv_timeout(Duration::from_millis(20))
        };
        match work {
            Ok(Work::Request { ticket, req }) => {
                shared.stats.record_worker(worker);
                let handler = EngineHandler { shared, lifecycle, cfg };
                router.complete(ticket, handler.handle(&req));
            }
            Ok(Work::Stream { stream, head, leftover }) => {
                shared.stats.record_worker(worker);
                serve_takeover_stream(stream, head, leftover, shared, lifecycle, cfg);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutting_down() {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serves a streaming connection the reactor handed over: back to
/// blocking mode, replay the bytes the reactor already read, then run the
/// multiplexed stream session.
fn serve_takeover_stream(
    stream: TcpStream,
    head: Head,
    leftover: Vec<u8>,
    shared: &Shared,
    lifecycle: &Lifecycle,
    cfg: &ServeConfig,
) {
    let mut stream = stream;
    let ok = stream.set_nonblocking(false).is_ok()
        && stream.set_read_timeout(Some(cfg.read_timeout)).is_ok()
        && stream.set_write_timeout(Some(Duration::from_secs(30))).is_ok();
    if !ok {
        shared.end_conn();
        return;
    }
    let clone = match stream.try_clone() {
        Ok(c) => c,
        Err(_) => {
            shared.end_conn();
            return;
        }
    };
    let mut reader = BufReader::new(Prefixed::new(leftover, clone));
    let _ = stream_session(&mut stream, &mut reader, shared, lifecycle, cfg, &head);
    shared.end_conn();
}

// ------------------------------------------------------------- dispatcher

/// Collects the annotations of one whole-request job (`Reply::Batch` /
/// `Reply::Reactor`): slots filled by whichever engine thread finishes
/// each table.
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
/// moment its micro-batch completes — streams get per-table sends,
/// `/annotate` jobs get one send when their last table finishes. Exits when
/// shutdown is set and the queue is drained.
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
    let stop = || shared.shutting_down();
    while let Some((mut jobs, reason)) = shared.queue.wait_for_batch(stop) {
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
                Reply::Batch(_) | Reply::Reactor { .. } => Some(Collect::new(n)),
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
                // Whole-request jobs: every annotation in request order
                // once this table was the last one outstanding.
                let complete =
                    |ann| collectors[ji].as_ref().expect("collector exists for job").fill(li, ann);
                match &jobs[ji].reply {
                    // A dead receiver means the handler gave up (client
                    // vanished); dropping its annotations is the right
                    // outcome.
                    Reply::Stream { index, tx } => {
                        let _ = tx.send((*index, ann));
                    }
                    Reply::Batch(tx) => {
                        if let Some(anns) = complete(ann) {
                            let _ = tx.send(anns);
                        }
                    }
                    // Reactor jobs render and route here, on whichever
                    // engine thread finishes the last table — no worker is
                    // blocked waiting, and a stale ticket (connection
                    // reaped meanwhile) is dropped by the router's
                    // generation check.
                    Reply::Reactor { ticket, router, wrapped, t0, counts, legacy } => {
                        if let Some(anns) = complete(ann) {
                            let (tables, seqs, tokens) = *counts;
                            shared.stats.record_request(t0.elapsed(), tables, seqs, tokens);
                            let body = annotations_response(&anns, *wrapped);
                            let mut resp = HttpResponse::json(200, body)
                                .with_header("x-model-version", &jobs[ji].engine.label());
                            if *legacy {
                                resp = resp.with_header("deprecation", "true");
                            }
                            router.complete(*ticket, resp);
                        }
                    }
                }
            });
        }
    }
}

/// The `--feedback-finetune` background loop: once enough corrected labels
/// accumulate, fold them into a short fine-tune of a copy of the current
/// model and hot-swap the result through the same slot `POST /v1/model`
/// uses. A failed cycle logs and drops that batch — it must never take the
/// daemon down or touch the serving weights.
fn finetune_loop(shared: &Shared, lifecycle: &Lifecycle) {
    while !shared.shutting_down() {
        let entries = lifecycle.journal().drain_if_at_least(FINETUNE_BATCH);
        if entries.is_empty() {
            std::thread::sleep(Duration::from_millis(100));
            continue;
        }
        let base = lifecycle.current();
        let swapped = finetune_bundle(&base, &entries)
            .and_then(|blob| lifecycle.slot().swap_blob(&blob).map_err(|e| e.to_string()));
        match swapped {
            Ok(fresh) => {
                lifecycle.journal().record_finetune();
                eprintln!(
                    "[served] feedback fine-tune: {} entries folded; model {} -> {}",
                    entries.len(),
                    base.label(),
                    fresh.label()
                );
            }
            Err(msg) => eprintln!("[served] feedback fine-tune skipped: {msg}"),
        }
    }
}

// ------------------------------------------------------------ handler core

/// The daemon's request→response core: the reactor (inline routes) and
/// the request workers route buffered requests through this [`Handler`].
/// Paths are matched
/// after [`canonical_path`], so `/v1/...` and legacy unprefixed routes
/// behave identically — except that a known route reached through its
/// deprecated unprefixed alias is counted in `legacy_route_hits` and
/// answered with a `Deprecation: true` header.
struct EngineHandler<'s> {
    shared: &'s Shared,
    lifecycle: &'s Lifecycle,
    cfg: &'s ServeConfig,
}

impl<'s> EngineHandler<'s> {
    /// Routes one request; `None` means no such route (404).
    fn route(&self, req: &HttpRequest) -> Option<HttpResponse> {
        let (shared, lifecycle, cfg) = (self.shared, self.lifecycle, self.cfg);
        match (req.method.as_str(), canonical_path(&req.path)) {
            // Liveness: always 200 while the process can answer at all.
            // The `ready` field mirrors `/readyz` for humans; probes that
            // gate traffic admission must use `/readyz` (which flips to
            // 503).
            ("GET", "/healthz") => {
                let ready = shared.ready.load(Ordering::SeqCst) && !shared.shutting_down();
                Some(HttpResponse::json(
                    200,
                    format!(
                        "{{\"status\":\"ok\",\"ready\":{ready},\"uptime_secs\":{:.3}}}\n",
                        shared.started.elapsed().as_secs_f64()
                    ),
                ))
            }
            // Readiness: 200 only while the daemon should receive new
            // traffic (engine up, not shutting down, queue below
            // capacity). The balancer re-admits a restarted replica only
            // after this passes.
            ("GET", "/readyz") => {
                let ready = shared.ready.load(Ordering::SeqCst)
                    && !shared.shutting_down()
                    && shared.queue.depth() < cfg.policy.max_queue_jobs;
                Some(if ready {
                    HttpResponse::json(200, "{\"status\":\"ready\"}\n")
                } else {
                    HttpResponse::unavailable("not_ready", "not ready", RETRY_AFTER_SECS)
                })
            }
            ("GET", "/stats") => {
                let engine = lifecycle.current();
                let journal = lifecycle.journal();
                let model = ModelStatus {
                    model_version: engine.label(),
                    swaps: lifecycle.slot().swaps(),
                    feedback_accepted: journal.accepted(),
                    feedback_dropped: journal.dropped(),
                    feedback_pending: journal.pending() as u64,
                    finetunes: journal.finetunes(),
                };
                Some(HttpResponse::json(
                    200,
                    shared.stats.to_json(
                        shared.started.elapsed(),
                        shared.queue.depth(),
                        engine.engine().cache_stats().hit_rate(),
                        &model,
                    ),
                ))
            }
            ("POST", "/shutdown") => {
                shared.request_shutdown();
                Some(HttpResponse::json(200, "{\"status\":\"shutting down\"}\n").close())
            }
            ("POST", "/annotate") => Some(annotate_response(shared, lifecycle, &req.body)),
            ("POST", "/model") => Some(model_swap_response(shared, lifecycle, &req.body)),
            ("POST", "/feedback") => Some(feedback_response(shared, lifecycle, &req.body)),
            _ => None,
        }
    }
}

impl<'s> Handler for EngineHandler<'s> {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        match self.route(req) {
            Some(resp) if !req.path.starts_with("/v1") => {
                // A known route reached through its deprecated unprefixed
                // alias: count it and flag the response, so clients that
                // never migrated are measurable instead of invisible.
                self.shared.stats.legacy_route_hits.fetch_add(1, Ordering::Relaxed);
                resp.with_header("deprecation", "true")
            }
            Some(resp) => resp,
            None => {
                self.shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
                HttpResponse::error(404, &format!("no route for {} {}", req.method, req.path))
            }
        }
    }
}

// -------------------------------------------------------------- lifecycle

/// `POST /model`: CRC-check and strict-load the uploaded checkpoint blob,
/// build the replacement engine off the hot path, and swap it in between
/// micro-batch flushes. In-flight requests finish on the model they
/// captured; everything admitted after the swap serves the new one.
fn model_swap_response(shared: &Shared, lifecycle: &Lifecycle, body: &[u8]) -> HttpResponse {
    let previous = lifecycle.current().label();
    match lifecycle.slot().swap_blob(body) {
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

/// `POST /feedback`: validate one corrected-label observation
/// (`{"table": {...}, "types": [[label, ...], ...]}`, one label list per
/// column, labels from the serving type vocabulary) and append it to the
/// journal. The entry only trains a model when the daemon runs with
/// `--feedback-finetune`; otherwise the journal is a bounded audit buffer.
fn feedback_response(shared: &Shared, lifecycle: &Lifecycle, body: &[u8]) -> HttpResponse {
    let fail = |msg: &str| {
        shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
        HttpResponse::error(400, msg)
    };
    let body = match std::str::from_utf8(body) {
        Ok(s) => s,
        Err(_) => return fail("body is not valid UTF-8"),
    };
    let v = match Json::parse(body) {
        Ok(v) => v,
        Err(msg) => return fail(&msg),
    };
    let Some(tv) = v.get("table") else {
        return fail("missing \"table\"");
    };
    let table: Table = match table_from_json(tv) {
        Ok(t) => t,
        Err(msg) => return fail(&msg),
    };
    let Some(types) = v.get("types").and_then(Json::as_array) else {
        return fail("missing \"types\" (one label list per column)");
    };
    if types.len() != table.n_cols() {
        return fail(&format!(
            "\"types\" has {} entries but table {:?} has {} columns",
            types.len(),
            table.id,
            table.n_cols()
        ));
    }
    let engine = lifecycle.current();
    let vocab = &engine.engine().bundle().type_vocab;
    let mut labels: Vec<Vec<String>> = Vec::with_capacity(types.len());
    for (ci, col) in types.iter().enumerate() {
        let Some(list) = col.as_array() else {
            return fail(&format!("\"types\"[{ci}] is not an array of labels"));
        };
        let mut out = Vec::with_capacity(list.len());
        for l in list {
            let Some(name) = l.as_str() else {
                return fail(&format!("\"types\"[{ci}] contains a non-string label"));
            };
            if vocab.id(name).is_none() {
                return fail(&format!("unknown type label {name:?} in column {ci}"));
            }
            out.push(name.to_string());
        }
        labels.push(out);
    }
    let pending = lifecycle.journal().push(FeedbackEntry { table, types: labels });
    HttpResponse::json(200, format!("{{\"status\":\"accepted\",\"pending\":{pending}}}\n"))
        .with_header("x-model-version", &engine.label())
}

// --------------------------------------------------------------- annotate

/// Decodes one stream-element document into a serialized group plus its
/// queue cost, applying the same validation as `/annotate`.
fn decode_stream_table(
    engine: &BatchAnnotator,
    doc: &str,
) -> Result<(Vec<SerializedTable>, usize, usize), String> {
    let v = Json::parse(doc)?;
    let table: Table = table_from_json(&v)?;
    let max_cols = engine.annotator().model.config().serialize.max_supported_cols();
    if table.n_cols() > max_cols {
        return Err(format!(
            "table {:?} has {} columns; this model serves at most {max_cols}",
            table.id,
            table.n_cols()
        ));
    }
    let group = engine.serialize_table(&table);
    let seqs = group.len();
    let tokens = group.iter().map(SerializedTable::len).sum();
    Ok((group, seqs, tokens))
}

/// `POST /annotate_stream`: multiplexes body reads, queue pushes, and
/// in-order result writes on the handling worker's thread. The connection
/// always closes afterwards (the chunked response is terminated either
/// cleanly or after an in-band `{"error": ...}` object). `reader` is the
/// reactor's leftover bytes replayed via [`Prefixed`] in front of the
/// socket.
fn stream_session(
    stream: &mut TcpStream,
    reader: &mut impl BufRead,
    shared: &Shared,
    lifecycle: &Lifecycle,
    cfg: &ServeConfig,
    head: &Head,
) -> std::io::Result<()> {
    // One engine per stream, captured up front: a hot-swap mid-stream must
    // not change the model under a session, so every table of a stream is
    // annotated by the model that was serving when the stream began. (The
    // chunked response head has already committed by the time results
    // flow, so deprecation is counted but not headered here.)
    let engine = lifecycle.current();
    if !head.path.starts_with("/v1") {
        shared.stats.legacy_route_hits.fetch_add(1, Ordering::Relaxed);
    }
    if head.framing == BodyFraming::None {
        shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
        shared.stats.record_stream(0, false);
        return write_error(
            stream,
            400,
            "Bad Request",
            "streaming requires a chunked or content-length body",
            false,
        );
    }
    if head.expect_continue {
        write_continue(stream)?;
    }
    write_chunked_head(stream, 200, "OK", "application/x-ndjson")?;
    // Short poll timeout: the loop below alternates between reading input
    // and flushing results, so neither side can stall the other for long.
    let _ = stream.set_read_timeout(Some(STREAM_POLL));

    let (tx, rx) = mpsc::channel::<(usize, TableAnnotation)>();
    // Unbounded total length: a stream may legitimately carry any number
    // of tables. Memory stays bounded by the per-document cap below and
    // the STREAM_WINDOW read-ahead limit.
    let mut body = BodyReader::unbounded(head.framing);
    let mut splitter = StreamSplitter::new(MAX_BODY_BYTES);
    let mut pending: VecDeque<(usize, Vec<SerializedTable>, usize, usize)> = VecDeque::new();
    let mut done: BTreeMap<usize, TableAnnotation> = BTreeMap::new();
    let mut parsed = 0usize;
    let mut emitted = 0usize;
    let (mut seqs_total, mut tokens_total) = (0u64, 0u64);
    let mut input_done = false;
    // A decode/validation error ends intake but lets every table parsed
    // before it finish, so the client gets all usable results before the
    // in-band error object; a fatal error (dead queue, idle timeout, lost
    // connection) stops the loop immediately.
    let mut error: Option<String> = None;
    let mut fatal = false;
    let mut last_progress = Instant::now();
    let mut buf = [0u8; 8 * 1024];

    loop {
        // 1. Flush finished annotations, in input order.
        while let Ok((i, ann)) = rx.try_recv() {
            done.insert(i, ann);
        }
        while let Some(ann) = done.remove(&emitted) {
            let mut line = annotation_to_json(&ann);
            line.push('\n');
            write_chunk(stream, line.as_bytes())?;
            emitted += 1;
            last_progress = Instant::now();
        }

        // 2. Submit parsed tables, respecting queue backpressure (a full
        //    queue simply pauses the stream's intake; the rejected job is
        //    handed back, so retries never clone the serialized group).
        while let Some((index, group, seqs, tokens)) = pending.pop_front() {
            let job = Job {
                groups: vec![group],
                engine: Arc::clone(&engine),
                reply: Reply::Stream { index, tx: tx.clone() },
            };
            match shared.queue.push(job, seqs, tokens) {
                Ok(()) => {
                    seqs_total += seqs as u64;
                    tokens_total += tokens as u64;
                    last_progress = Instant::now();
                }
                Err((PushRejected::Full, mut job)) => {
                    let group = job.groups.pop().expect("stream job has one group");
                    pending.push_front((index, group, seqs, tokens));
                    break;
                }
                Err((PushRejected::Closed, _)) => {
                    error = Some("server is shutting down".into());
                    fatal = true;
                    break;
                }
            }
        }
        if fatal {
            break;
        }
        if input_done && pending.is_empty() && emitted == parsed {
            break;
        }
        // Shutdown is fatal for streams: their worker must exit so
        // `Server::run`'s scoped join can complete. What was already
        // submitted is still drained and flushed below.
        if shared.shutting_down() {
            error = Some("server is shutting down".into());
            break;
        }
        if last_progress.elapsed() > cfg.stream_idle_timeout {
            error = Some("stream idle timeout".into());
            break;
        }

        // 3. Pull more input (bounded read-ahead), or wait for results.
        if !input_done && pending.len() < STREAM_WINDOW {
            match body.read_some(reader, &mut buf) {
                Ok(0) => {
                    input_done = true;
                    if splitter.mid_document() {
                        error = Some("stream ended mid-table".into());
                    }
                }
                Ok(n) => {
                    // Deliberately NOT progress by itself: only a completed
                    // document (below) resets the idle clock, so a client
                    // dribbling meaningless bytes cannot pin this worker
                    // past stream_idle_timeout.
                    match splitter.push(&buf[..n]) {
                        Ok(docs) => {
                            for doc in docs {
                                last_progress = Instant::now();
                                match decode_stream_table(engine.engine(), &doc) {
                                    Ok((group, seqs, tokens)) => {
                                        pending.push_back((parsed, group, seqs, tokens));
                                        parsed += 1;
                                    }
                                    Err(msg) => {
                                        error = Some(msg);
                                        break;
                                    }
                                }
                            }
                        }
                        Err(msg) => error = Some(msg),
                    }
                    if error.is_some() {
                        input_done = true; // finish prior tables, then report
                    }
                }
                Err(ReadError::TimedOut) => {}
                Err(ReadError::Eof) => {
                    error = Some("connection closed mid-stream".into());
                    break;
                }
                Err(ReadError::Bad(msg)) | Err(ReadError::TooLarge(msg)) => {
                    error = Some(msg);
                    input_done = true;
                }
                Err(ReadError::TooSlow) => {
                    error = Some("stream too slow".into());
                    input_done = true;
                }
                Err(ReadError::Io(e)) => return Err(e),
            }
        } else {
            match rx.recv_timeout(Duration::from_millis(10)) {
                Ok((i, ann)) => {
                    done.insert(i, ann);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!("tx held locally"),
            }
        }
    }

    // A fatal exit may leave submitted jobs in flight; they are still
    // drained (the queue closes before the dispatcher stops), so wait
    // briefly and flush them — the error object lands after every result
    // the client can still use.
    if error.is_some() {
        let submitted = parsed - pending.len();
        let give_up = Instant::now() + Duration::from_secs(5);
        while emitted < submitted && Instant::now() < give_up {
            if let Ok((i, ann)) = rx.recv_timeout(Duration::from_millis(50)) {
                done.insert(i, ann);
            }
            while let Some(ann) = done.remove(&emitted) {
                let mut line = annotation_to_json(&ann);
                line.push('\n');
                write_chunk(stream, line.as_bytes())?;
                emitted += 1;
            }
        }
    }
    shared.stats.seqs.fetch_add(seqs_total, Ordering::Relaxed);
    shared.stats.tokens.fetch_add(tokens_total, Ordering::Relaxed);
    shared.stats.record_stream(emitted as u64, error.is_none());
    if let Some(msg) = error {
        shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
        // Same envelope shape as HTTP-level errors, delivered in-band as
        // the stream's final NDJSON object (the status line already went
        // out as 200).
        let code = match msg.as_str() {
            "server is shutting down" => "shutting_down",
            "stream idle timeout" => "timeout",
            _ => "stream_error",
        };
        let line = crate::http::error_envelope(code, &msg, None);
        write_chunk(stream, line.as_bytes())?;
    } else {
        shared.stats.requests_ok.fetch_add(1, Ordering::Relaxed);
    }
    write_last_chunk(stream)
}

/// A decoded, tokenized `/annotate` request ready for the batching queue.
struct PreparedAnnotate {
    groups: Vec<Vec<SerializedTable>>,
    /// Echo the client's `{"tables": [...]}` framing in the response.
    wrapped: bool,
    seqs: usize,
    tokens: usize,
}

/// The decode/validate/tokenize prefix shared by both `/annotate` paths
/// (blocking worker and reactor-completed). Tokenizing on the calling
/// thread warms the shared LRU cache and lets the queue count real
/// tokens, keeping the dispatcher compute-only; errors come back as
/// ready-to-send responses with the failure already counted.
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
    // Oversized tables would serialize past the encoder's max_seq; reject
    // rather than panic the dispatcher.
    let max_cols = engine.annotator().model.config().serialize.max_supported_cols();
    if let Some(t) = tables.iter().find(|t| t.n_cols() > max_cols) {
        let msg = format!(
            "table {:?} has {} columns; this model serves at most {max_cols}",
            t.id,
            t.n_cols()
        );
        return Err(fail(&msg));
    }
    let groups: Vec<Vec<SerializedTable>> =
        tables.iter().map(|t| engine.serialize_table(t)).collect();
    let seqs: usize = groups.iter().map(Vec::len).sum();
    let tokens: usize = groups.iter().flat_map(|g| g.iter()).map(SerializedTable::len).sum();
    Ok(PreparedAnnotate { groups, wrapped, seqs, tokens })
}

/// The shared 503 shape for queue backpressure and shutdown.
fn annotate_unavailable(shared: &Shared, code: &str, msg: &str) -> HttpResponse {
    shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
    HttpResponse::unavailable(code, msg, RETRY_AFTER_SECS)
}

/// `POST /annotate`: decode, tokenize, submit to the batching queue, and
/// wait for the flushed result. Runs on a blocking worker thread, on
/// chaos-configured daemons only — injected stalls must block one
/// request's thread, never the reactor or an engine callback. The engine is captured once, before the queue push:
/// the response is produced by exactly that model and says so in its
/// `x-model-version` header, however many swaps land while the job waits.
fn annotate_response(shared: &Shared, lifecycle: &Lifecycle, body: &[u8]) -> HttpResponse {
    let t0 = Instant::now();
    let engine = lifecycle.current();
    // Decide this request's injected faults up front: a crash fault fires
    // before any byte of a response exists, which is exactly the failure a
    // balancer may safely retry.
    let plan: Option<ChaosPlan> = shared.chaos.as_ref().map(ChaosState::on_annotate);
    if plan.is_some_and(|p| p.crash) {
        eprintln!("[served] chaos: crash_after reached; exiting before response");
        std::process::exit(86);
    }
    let prep = match prepare_annotate(shared, engine.engine(), body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let n_tables = prep.groups.len() as u64;
    let (seqs, tokens, wrapped) = (prep.seqs, prep.tokens, prep.wrapped);

    let (tx, rx) = mpsc::channel();
    let job = Job { groups: prep.groups, engine: Arc::clone(&engine), reply: Reply::Batch(tx) };
    match shared.queue.push(job, seqs, tokens) {
        Ok(()) => {}
        Err((PushRejected::Closed, _)) => {
            return annotate_unavailable(shared, "shutting_down", "server is shutting down");
        }
        Err((PushRejected::Full, _)) => {
            shared.stats.rejected_full.fetch_add(1, Ordering::Relaxed);
            return annotate_unavailable(shared, "queue_full", "annotation queue is full");
        }
    }
    // An accepted push is always drained (the queue closes before the
    // dispatcher stops); the timeout is a belt-and-braces guard against a
    // panicked dispatcher.
    let anns = match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(a) => a,
        Err(_) => return annotate_unavailable(shared, "timeout", "annotation timed out"),
    };
    shared.stats.record_request(t0.elapsed(), n_tables, seqs as u64, tokens as u64);
    let body = annotations_response(&anns, wrapped);
    if let Some(p) = plan {
        if let Some(d) = p.delay {
            std::thread::sleep(d);
        }
        if p.reset {
            eprintln!("[served] chaos: severing connection after a partial response");
            return HttpResponse::RawThenClose(render_torn_response(&body));
        }
    }
    HttpResponse::json(200, body).with_header("x-model-version", &engine.label())
}

/// `POST /annotate` from the reactor thread: same decode/tokenize/
/// admission as [`annotate_response`], but the job carries the
/// connection's reactor ticket instead of a blocking reply channel — the
/// dispatcher's engine callback renders and routes the response when the
/// last table completes, and the reactor is free for the next request the
/// moment the push succeeds. In-flight annotate requests are then bounded
/// by connections rather than worker count, which keeps micro-batches
/// full at high fan-in (and drops two thread hand-offs per request).
/// Returns a response only when the request must be answered immediately
/// (validation failure or queue backpressure).
fn annotate_submit(
    shared: &Shared,
    lifecycle: &Lifecycle,
    router: &Arc<Router>,
    ticket: Ticket,
    legacy: bool,
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
            legacy,
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
    let mut out = format!(
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: \
         keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(&body.as_bytes()[..body.len() / 2]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_rejects_zero_workers() {
        let cfg = ServeConfig { addr: "127.0.0.1:0".into(), workers: 0, ..ServeConfig::default() };
        let err = Server::bind(cfg).err().expect("zero workers must not bind");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
