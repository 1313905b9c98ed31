//! The epoll event loop: the workspace's one HTTP server.
//!
//! One reactor thread owns the listener and every connection. Two
//! [`Driver`]s run on it — the daemon's (`server.rs`) and
//! `doduo-balance`'s front (its `ProxyDriver`) — and both admit
//! connections through [`admit`]. Each connection is a small state
//! machine —
//!
//! ```text
//!   Idle ──bytes──▶ Reading ──full request──▶ Dispatched ──completion──▶ Writing
//!    ▲  (75 s)      │ (request deadline)       (dispatch backstop)    (write stall)
//!    │              └─stream head─▶ Streaming ──session done──▶ Writing ──▶ close
//!    │                              (session deadline, write stall)
//!    └──────────────────── outbox drained, keep-alive ───────────────────────┘
//! ```
//!
//! — where every edge has a timeout budget, armed as an exact deadline on
//! a min-heap. Sockets are nonblocking; reads and writes happen only
//! when epoll reports readiness, so ten thousand idle keep-alive
//! connections cost zero syscalls between requests.
//!
//! The reactor never computes responses for work that can block: a fully
//! parsed request is handed to the [`Driver`], which either answers
//! immediately (queue-free endpoints, errors) or queues it for another
//! thread (the dispatcher's engine callback, the model loader). Those never
//! touch sockets — they push a [`Completion`] into the [`Router`] and signal
//! its `eventfd`, which wakes the reactor to write the bytes out. A
//! completion may carry a not-before instant (a chaos delay): the reactor
//! parks it on its `Dispatched` connection and a timer writes it.
//!
//! A request whose head the driver claims ([`Driver::open_stream`]) is
//! answered at once with a chunked `200` head and goes full duplex in
//! `Streaming`: decoded body bytes go to the connection's [`StreamHooks`]
//! session, finished tables come back through the [`Router`] as rendered
//! lines, and every event appends chunks to the outbox and says whether
//! it wants more input. `EPOLLIN` is watched only while it does *and* the
//! outbox is empty, `EPOLLOUT` only while it is not — a client that
//! uploads without reading is paused, then severed after `write_timeout`.
//!
//! Every connection has one deadline — the budget of its current state —
//! and at most one live entry on the timer heap, at or before it. A
//! transition only moves the deadline; the heap is pushed only when the
//! new deadline comes before the entry already armed. An entry that fires
//! early re-arms at the deadline, and one that was superseded by an
//! earlier push fires as a no-op, so keep-alive traffic adds no entries
//! and the heap is bounded by connections, not by requests. Heap entries
//! and epoll registrations carry a `slot | epoch << 32` token whose epoch
//! bumps only when the slot's socket is closed, so what a closed
//! connection left behind is dropped. Dispatch and stream tickets carry a
//! separate `slot | gen << 32`: the generation bumps when a ticket is
//! issued and at close, so a late or duplicate completion never answers a
//! later request.

use crate::handler::{render_http_response, HttpRequest, HttpResponse};
use crate::http::{parse_head, write_chunked_head, BodyDecoder, BodyFraming, Head, ReadError};
use epoll::{Epoll, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Epoll token of the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll token of the completion-queue `eventfd`.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// A request ticket: `slot | generation << 32`, issued to one dispatched
/// request or one stream. It is valid until the connection issues its next
/// ticket or closes; the [`Router`] uses it to route completions back to
/// the right connection (or drop them once it moved on).
pub type Ticket = u64;

fn ticket_slot(t: Ticket) -> usize {
    (t & 0xffff_ffff) as usize
}

fn ticket_gen(t: Ticket) -> u32 {
    (t >> 32) as u32
}

/// A byte stream the reactor can drive: nonblocking reads/writes plus the
/// socket controls the event loop needs. Implemented for [`TcpStream`]
/// (production) and [`UnixStream`] (socketpair-backed unit tests).
///
/// [`TcpStream`]: std::net::TcpStream
/// [`UnixStream`]: std::os::unix::net::UnixStream
pub trait Source: Read + Write + AsRawFd + Send {
    /// Switches the `O_NONBLOCK` flag.
    fn set_nonblocking_flag(&self, nonblocking: bool) -> std::io::Result<()>;
    /// Severs both directions without dropping the descriptor.
    fn shutdown_both(&self) -> std::io::Result<()>;
}

impl Source for std::net::TcpStream {
    fn set_nonblocking_flag(&self, nonblocking: bool) -> std::io::Result<()> {
        self.set_nonblocking(nonblocking)
    }
    fn shutdown_both(&self) -> std::io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }
}

impl Source for std::os::unix::net::UnixStream {
    fn set_nonblocking_flag(&self, nonblocking: bool) -> std::io::Result<()> {
        self.set_nonblocking(nonblocking)
    }
    fn shutdown_both(&self) -> std::io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }
}

/// What the [`Driver`] decided to do with a fully received request.
pub enum Dispatch {
    /// Answer now (the driver computed the response without blocking).
    Respond(HttpResponse),
    /// The request was queued for another thread; a [`Completion`] carrying
    /// this connection's [`Ticket`] will arrive through the [`Router`].
    Queued,
}

/// The policy half of the event loop: accepting, routing, and stats. The
/// reactor owns all socket I/O; the driver owns everything else.
pub trait Driver<S: Source>: Sync {
    /// Pulls one pending connection off the listener. `Ok(None)` when none
    /// is waiting. Admission control (connection caps) lives here.
    fn accept(&self) -> std::io::Result<Option<S>> {
        Ok(None)
    }

    /// The per-connection state of an open stream ([`NoStream`] for a
    /// driver that opens none).
    type Stream: StreamHooks;

    /// Claims a request head as a stream; `None` (the default) for an
    /// ordinary request, whose body the reactor buffers for
    /// [`Driver::dispatch`]. `ticket` addresses the connection for
    /// [`Router::line`] until the stream ends. Must not block.
    fn open_stream(&self, _head: &Head, _ticket: Ticket, _prior: u64) -> Option<Self::Stream> {
        None
    }

    /// Routes one fully received request. `prior_requests` is the number
    /// of requests already served on this connection (for keep-alive
    /// reuse accounting). Must not block.
    fn dispatch(&self, ticket: Ticket, req: HttpRequest, prior_requests: u64) -> Dispatch;

    /// A request failed before dispatch (parse error, deadline) — the
    /// reactor already wrote the error envelope; this is for counters.
    fn on_request_error(&self) {}

    /// A connection left the reactor.
    fn on_close(&self) {}
}

/// How a stream's request body ended.
pub enum BodyEnd {
    /// The framing completed (last chunk, or `Content-Length` bytes).
    Complete,
    /// The peer sent FIN before the framing completed.
    Truncated,
    /// The framing was malformed; the reason to report.
    Bad(String),
}

/// What a stream session wants from its connection after an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Deliver more body bytes as they arrive.
    Read,
    /// Leave body bytes in the socket until a later event says `Read`.
    Hold,
    /// The response is complete: drain the outbox, then close.
    Close,
}

/// One open stream, driven by the reactor. Every event may append whole
/// response chunks to `out`, the connection's outbox. The session is
/// dropped when its response is complete or its connection is lost.
pub trait StreamHooks {
    /// Decoded body bytes arrived; `end` is set on the final call.
    fn on_body(&mut self, bytes: &[u8], end: Option<BodyEnd>, out: &mut Vec<u8>) -> Next;

    /// Table `index`'s rendered result line arrived through [`Router::line`].
    fn on_line(&mut self, index: usize, line: String, out: &mut Vec<u8>) -> Next;

    /// [`StreamHooks::deadline`] passed, or shutdown began.
    fn on_timer(&mut self, now: Instant, out: &mut Vec<u8>) -> Next;

    /// When the session next wants [`StreamHooks::on_timer`].
    fn deadline(&self, now: Instant) -> Instant;
}

/// The [`Driver::Stream`] of a driver that opens no streams (the
/// balancer's front, scripted test backends): uninhabited, so no session
/// ever exists.
pub enum NoStream {}

impl StreamHooks for NoStream {
    fn on_body(&mut self, _: &[u8], _: Option<BodyEnd>, _: &mut Vec<u8>) -> Next {
        match *self {}
    }
    fn on_line(&mut self, _: usize, _: String, _: &mut Vec<u8>) -> Next {
        match *self {}
    }
    fn on_timer(&mut self, _: Instant, _: &mut Vec<u8>) -> Next {
        match *self {}
    }
    fn deadline(&self, _: Instant) -> Instant {
        match *self {}
    }
}

/// The admission control of a TCP [`Driver::accept`]: takes one pending
/// connection off the nonblocking `listener` (`None` when none is waiting),
/// sets `TCP_NODELAY`, and holds `open` — the driver's live-connection
/// count, which its [`Driver::on_close`] decrements — under `cap`. A
/// connection beyond the cap gets a best-effort `503 + Retry-After` and is
/// closed; `accepted` / `rejected` count both outcomes.
pub fn admit(
    listener: &TcpListener,
    open: &AtomicUsize,
    cap: usize,
    accepted: &AtomicU64,
    rejected: &AtomicU64,
) -> std::io::Result<Option<TcpStream>> {
    let stream = match listener.accept() {
        Ok((stream, _)) => stream,
        Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
        Err(e) => {
            // Out of descriptors, say: the listener stays readable, so back
            // off instead of spinning on it.
            eprintln!("[reactor] accept error: {e}");
            std::thread::sleep(Duration::from_millis(50));
            return Ok(None);
        }
    };
    let _ = stream.set_nodelay(true);
    if open.load(Ordering::SeqCst) >= cap {
        rejected.fetch_add(1, Ordering::Relaxed);
        // The fresh socket is still blocking: bound the write.
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let busy = HttpResponse::unavailable("overloaded", "too many connections", 1).close();
        let _ = (&stream).write_all(&render_http_response(&busy, false).0);
        return Ok(None);
    }
    open.fetch_add(1, Ordering::SeqCst);
    accepted.fetch_add(1, Ordering::Relaxed);
    Ok(Some(stream))
}

/// Timeout budgets and sizing for a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Budget for receiving one complete request (head + body) once its
    /// first byte arrives; exceeded → `408` and close.
    pub request_deadline: Duration,
    /// How long a keep-alive connection may sit idle between requests.
    pub idle_timeout: Duration,
    /// Backstop for a queued request whose completion never arrives (or is
    /// held back for longer than this): the connection is closed.
    pub dispatch_timeout: Duration,
    /// Budget for draining a response (a stream's outbox: from when the
    /// socket first pushes back) to a slow-reading client.
    pub write_timeout: Duration,
    /// Discriminates a slow-loris from a dead client when
    /// `request_deadline` expires mid-request: a client whose last byte
    /// arrived within this window gets a `408`; one silent for longer is
    /// closed without a response.
    pub read_grace: Duration,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            request_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(75),
            dispatch_timeout: Duration::from_secs(35),
            write_timeout: Duration::from_secs(30),
            read_grace: Duration::from_millis(200),
        }
    }
}

// ------------------------------------------------------------------ timers

/// Armed timers: a min-heap of `(deadline, connection token)`. An insert
/// is O(log n), the next deadline a peek, and a timer fires at the first
/// [`TimerHeap::expire`] at or after its deadline, never before. Nothing
/// is deleted: the reactor pushes at most one live entry per connection
/// (see `Reactor::set_deadline`) and lets superseded ones fire as no-ops.
#[derive(Default)]
struct TimerHeap {
    heap: BinaryHeap<Reverse<(Instant, u64)>>,
}

impl TimerHeap {
    /// Arms a timer; `token` comes back out of [`TimerHeap::expire`].
    fn insert(&mut self, deadline: Instant, token: u64) {
        self.heap.push(Reverse((deadline, token)));
    }

    /// Collects, earliest first, every token whose deadline is at or
    /// before `now`.
    fn expire(&mut self, now: Instant, out: &mut Vec<u64>) {
        while let Some(&Reverse((deadline, token))) = self.heap.peek() {
            if deadline > now {
                break;
            }
            self.heap.pop();
            out.push(token);
        }
    }

    /// Time until the earliest armed deadline, or `None` when none is.
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        self.heap.peek().map(|Reverse((deadline, _))| deadline.saturating_duration_since(now))
    }
}

// --------------------------------------------------------------- completions

/// Finished work addressed to a connection by the [`Ticket`] handed to
/// [`Driver::dispatch`] or [`Driver::open_stream`].
pub enum Completion {
    /// A dispatched request's response, to render and write — held back
    /// until the instant, if one is given.
    Response(Ticket, HttpResponse, Option<Instant>),
    /// One table of an open stream: its position in the stream and its
    /// rendered result line.
    Line(Ticket, usize, String),
}

/// The completion queue into the reactor: a mutexed vector plus an
/// `eventfd` that wakes the reactor out of `epoll_wait`. Shared via `Arc`
/// with every thread that finishes queued work.
pub struct Router {
    done: Mutex<Vec<Completion>>,
    wake: EventFd,
}

impl Router {
    /// An empty completion queue with a fresh `eventfd`.
    pub fn new() -> std::io::Result<Router> {
        Ok(Router { done: Mutex::new(Vec::new()), wake: EventFd::new()? })
    }

    /// Delivers a queued request's response and wakes the reactor, which
    /// writes it at once, or no earlier than `not_before`.
    pub fn complete(&self, ticket: Ticket, resp: HttpResponse, not_before: Option<Instant>) {
        self.push(Completion::Response(ticket, resp, not_before));
    }

    /// Delivers one finished table of the stream opened under `ticket`. A
    /// stream that has ended meanwhile no longer holds that ticket, and the
    /// reactor drops the line.
    pub fn line(&self, ticket: Ticket, index: usize, line: String) {
        self.push(Completion::Line(ticket, index, line));
    }

    /// The `eventfd` is only signalled on the empty→non-empty transition:
    /// the reactor drains the whole queue per turn (eventfd first, then the
    /// vector), so a completion that lands behind an undelivered one rides
    /// the signal already in flight. A dispatcher finishing a micro-batch
    /// of jobs pays one wake syscall, not one per job.
    fn push(&self, completion: Completion) {
        let first = {
            let mut done = self.done.lock().expect("router lock");
            done.push(completion);
            done.len() == 1
        };
        if first {
            let _ = self.wake.signal();
        }
    }

    /// Wakes the reactor without delivering anything (shutdown nudge).
    pub fn nudge(&self) {
        let _ = self.wake.signal();
    }

    fn drain(&self) -> Vec<Completion> {
        let _ = self.wake.drain();
        std::mem::take(&mut *self.done.lock().expect("router lock"))
    }
}

// ------------------------------------------------------------- connections

/// What the deadline budgets and what readiness means right now.
enum ConnState<T> {
    /// Keep-alive parking: no partial request buffered.
    Idle,
    /// A request's first byte has arrived; head/body parsing in progress.
    Reading,
    /// Request queued elsewhere; socket reads are paused. Holds a
    /// completion that arrived ahead of its not-before instant.
    Dispatched(Option<(Instant, HttpResponse)>),
    /// An open stream: body bytes in, response chunks out, on one socket.
    Streaming(OpenStream<T>),
    /// Response bytes draining from the outbox.
    Writing {
        /// Park for another request once drained (vs. close).
        keep: bool,
        /// Sever with `shutdown(2)` after draining (torn-response chaos).
        sever: bool,
    },
}

/// A connection's open stream: the driver's session plus what the reactor
/// tracks to drive it.
struct OpenStream<T> {
    session: T,
    /// The session's last verdict was [`Next::Read`] and the body is not
    /// over; reads also wait for the outbox to drain.
    wants_body: bool,
    /// When the outbox first met `EAGAIN` since it was last empty.
    stalled_since: Option<Instant>,
}

struct ConnEntry<S, T> {
    stream: S,
    state: ConnState<T>,
    /// When the current state's budget runs out.
    deadline: Instant,
    /// The earliest of this connection's entries still on the timer heap.
    armed: Option<Instant>,
    /// Raw bytes read but not yet consumed by parsing.
    inbuf: Vec<u8>,
    /// Parsed head of the in-progress request.
    head: Option<Head>,
    /// Body decoder for the in-progress request.
    decoder: Option<BodyDecoder>,
    /// Decoded body bytes of the in-progress request.
    bodybuf: Vec<u8>,
    /// Rendered response bytes awaiting the socket.
    outbox: Vec<u8>,
    outpos: usize,
    /// Requests fully served on this connection.
    requests: u64,
    /// The dispatched request's keep-alive wish (consulted at completion).
    req_keep_alive: bool,
    /// When the last request byte arrived (see `ReactorConfig::read_grace`).
    last_read: Instant,
}

// ----------------------------------------------------------------- reactor

/// The event loop. Generic over the stream type (TCP in production, Unix
/// socketpairs in tests) and the [`Driver`] policy.
pub struct Reactor<S: Source, D: Driver<S>> {
    cfg: ReactorConfig,
    driver: D,
    epoll: Epoll,
    router: Arc<Router>,
    timers: TimerHeap,
    conns: Vec<Option<ConnEntry<S, D::Stream>>>,
    /// Per-slot ticket generation: bumped when a [`Ticket`] is issued and
    /// at close, so a completion for an earlier request is dropped.
    gens: Vec<u32>,
    /// Per-slot connection epoch: bumped only when a slot's socket is
    /// closed. Epoll registrations and timer entries carry it, so events
    /// for a recycled slot drop.
    epochs: Vec<u32>,
    /// The interest mask the kernel currently holds per slot; interest
    /// changes that match it skip the `epoll_ctl` syscall.
    interests: Vec<u32>,
    free: Vec<usize>,
    listener_fd: Option<i32>,
    events: Vec<epoll::Event>,
    fired: Vec<u64>,
    active: usize,
    /// `epoll_wait` calls so far: what the idle-wakeup test counts.
    #[cfg(test)]
    waits: usize,
}

impl<S: Source, D: Driver<S>> Reactor<S, D> {
    /// Builds the reactor: epoll instance, wake `eventfd` (registered
    /// immediately), timers.
    pub fn new(cfg: ReactorConfig, driver: D) -> std::io::Result<Reactor<S, D>> {
        let epoll = Epoll::new()?;
        let router = Arc::new(Router::new()?);
        epoll.add(router.wake.as_raw_fd(), TOKEN_WAKE, EPOLLIN)?;
        Ok(Reactor {
            cfg,
            driver,
            epoll,
            router,
            timers: TimerHeap::default(),
            conns: Vec::new(),
            gens: Vec::new(),
            epochs: Vec::new(),
            interests: Vec::new(),
            free: Vec::new(),
            listener_fd: None,
            events: Vec::with_capacity(256),
            fired: Vec::new(),
            active: 0,
            #[cfg(test)]
            waits: 0,
        })
    }

    /// The completion queue to hand to the threads that finish queued work.
    pub fn router(&self) -> Arc<Router> {
        Arc::clone(&self.router)
    }

    /// The driver, for inspecting its counters (stats live there).
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// Registers the listening socket; [`Driver::accept`] is called when
    /// it becomes readable. The listener must already be nonblocking.
    pub fn set_listener(&mut self, fd: i32) -> std::io::Result<()> {
        self.epoll.add(fd, TOKEN_LISTENER, EPOLLIN)?;
        self.listener_fd = Some(fd);
        Ok(())
    }

    /// Connections currently owned by the reactor.
    pub fn connections(&self) -> usize {
        self.active
    }

    /// Admits a connection: nonblocking, registered for readability,
    /// parked idle.
    pub fn insert(&mut self, stream: S) -> std::io::Result<()> {
        stream.set_nonblocking_flag(true)?;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.conns.push(None);
                self.gens.push(0);
                self.epochs.push(0);
                self.interests.push(0);
                self.conns.len() - 1
            }
        };
        self.epoll.add(stream.as_raw_fd(), self.conn_token(slot), EPOLLIN)?;
        self.interests[slot] = EPOLLIN;
        let now = Instant::now();
        self.conns[slot] = Some(ConnEntry {
            stream,
            state: ConnState::Idle,
            deadline: now,
            armed: None,
            inbuf: Vec::new(),
            head: None,
            decoder: None,
            bodybuf: Vec::new(),
            outbox: Vec::new(),
            outpos: 0,
            requests: 0,
            req_keep_alive: true,
            last_read: now,
        });
        self.active += 1;
        self.set_deadline(slot, now + self.cfg.idle_timeout);
        Ok(())
    }

    /// Issues a [`Ticket`] for the slot's next request or stream, which
    /// retires the one issued before it.
    fn issue_ticket(&mut self, slot: usize) -> Ticket {
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        slot as u64 | (u64::from(self.gens[slot]) << 32)
    }

    /// The epoll-registration and timer token: connection-epoch scoped.
    fn conn_token(&self, slot: usize) -> u64 {
        slot as u64 | (u64::from(self.epochs[slot]) << 32)
    }

    /// The slot a connection token addresses, if that connection is still
    /// open.
    fn live_slot(&self, token: u64) -> Option<usize> {
        let slot = ticket_slot(token);
        let live = self.epochs.get(slot) == Some(&ticket_gen(token));
        (live && self.conns[slot].is_some()).then_some(slot)
    }

    /// Points the kernel at `interest` for the slot's fd. A request that
    /// wants what the kernel already watches (the keep-alive steady state)
    /// costs no syscall.
    fn set_interest(&mut self, slot: usize, interest: u32) {
        if self.interests[slot] == interest {
            return;
        }
        let fd = match self.conns[slot].as_ref() {
            Some(conn) => conn.stream.as_raw_fd(),
            None => return,
        };
        if self.epoll.modify(fd, self.conn_token(slot), interest).is_ok() {
            self.interests[slot] = interest;
        }
    }

    /// Gives the connection's current state the deadline `at`. The heap is
    /// pushed only when no entry is armed or the armed one comes later;
    /// otherwise the armed entry fires first and re-arms.
    fn set_deadline(&mut self, slot: usize, at: Instant) {
        let token = self.conn_token(slot);
        let Some(conn) = self.conns[slot].as_mut() else { return };
        conn.deadline = at;
        if conn.armed.is_none_or(|armed| at < armed) {
            conn.armed = Some(at);
            self.timers.insert(at, token);
        }
    }

    /// Tears the connection down: epoll deregistration, optional sever,
    /// slot free.
    fn close(&mut self, slot: usize, sever: bool) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            if sever {
                let _ = conn.stream.shutdown_both();
            }
            self.gens[slot] = self.gens[slot].wrapping_add(1);
            self.epochs[slot] = self.epochs[slot].wrapping_add(1);
            self.free.push(slot);
            self.active -= 1;
            self.driver.on_close();
        }
    }

    /// One full event-loop iteration: wait (bounded by `cap` and the
    /// nearest timer), service readiness, drain completions, fire timers.
    /// Exposed for tests; [`Reactor::run`] loops the same iteration with
    /// no cap while it serves.
    pub fn turn(&mut self, cap: Duration) -> std::io::Result<()> {
        self.step(Some(cap))
    }

    /// [`Reactor::turn`] with an optional cap: `None` waits for an event,
    /// a completion or the nearest timer, however far off.
    fn step(&mut self, cap: Option<Duration>) -> std::io::Result<()> {
        let now = Instant::now();
        let timeout = match (self.timers.next_timeout(now), cap) {
            (Some(t), Some(cap)) => Some(t.min(cap)),
            (t, cap) => t.or(cap),
        };
        #[cfg(test)]
        {
            self.waits += 1;
        }
        self.epoll.wait(&mut self.events, 256, timeout)?;
        let events = std::mem::take(&mut self.events);
        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => self.accept_pending(),
                TOKEN_WAKE => {} // drained below, every turn
                token => self.handle_conn_event(token, ev.events),
            }
        }
        self.events = events;
        self.drain_completions();
        let now = Instant::now();
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        self.timers.expire(now, &mut fired);
        for &token in &fired {
            self.handle_timer(token);
        }
        self.fired = fired;
        Ok(())
    }

    /// Runs the loop until `stop` flips true, then drains: new accepts
    /// halt, parked connections close, in-flight requests and open streams
    /// get `grace` to finish writing. While serving, a turn waits on its
    /// sockets and timers alone, so an idle reactor sleeps until its next
    /// deadline: whoever raises `stop` must also [`Router::nudge`] this
    /// reactor's router to wake it. While draining, a turn waits no longer
    /// than the grace deadline.
    pub fn run(&mut self, stop: &AtomicBool, grace: Duration) -> std::io::Result<()> {
        let mut grace_until: Option<Instant> = None;
        loop {
            let mut cap = None;
            if stop.load(Ordering::SeqCst) {
                if grace_until.is_none() {
                    grace_until = Some(Instant::now() + grace);
                    if let Some(fd) = self.listener_fd.take() {
                        let _ = self.epoll.delete(fd);
                    }
                    for slot in 0..self.conns.len() {
                        match self.conns[slot].as_ref().map(|conn| &conn.state) {
                            Some(ConnState::Idle | ConnState::Reading) => self.close(slot, false),
                            // A stream learns of the drain from its timer
                            // event and ends itself in-band.
                            Some(ConnState::Streaming(_)) => self.stream_timer(slot),
                            _ => {}
                        }
                    }
                }
                let deadline = grace_until.expect("grace set");
                let now = Instant::now();
                if self.active == 0 || now >= deadline {
                    for slot in 0..self.conns.len() {
                        self.close(slot, false);
                    }
                    return Ok(());
                }
                cap = Some(deadline - now);
            }
            self.step(cap)?;
        }
    }

    fn accept_pending(&mut self) {
        loop {
            match self.driver.accept() {
                Ok(Some(stream)) => {
                    // An epoll-add failure drops the connection the driver
                    // just accounted for; balance the books.
                    if self.insert(stream).is_err() {
                        self.driver.on_close();
                    }
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    fn handle_conn_event(&mut self, token: u64, flags: u32) {
        let Some(slot) = self.live_slot(token) else {
            return; // stale event for a connection that closed
        };
        if flags & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(slot, false);
            return;
        }
        // A peer's FIN needs no flag of its own: it reads as end-of-file,
        // behind whatever bytes came before it.
        if flags & EPOLLIN != 0 && self.fill_inbuf(slot) {
            self.advance(slot);
        }
        if flags & EPOLLOUT != 0 {
            self.pump_out(slot);
        }
    }

    /// One read's worth of bytes into the input buffer (level-triggered
    /// readiness brings the rest next turn), which bounds what is buffered
    /// ahead of parsing or handed to a stream session in one event.
    /// Returns false when there is nothing to advance over.
    fn fill_inbuf(&mut self, slot: usize) -> bool {
        let mut scratch = [0u8; 16 * 1024];
        let Some(conn) = self.conns[slot].as_mut() else { return false };
        match conn.stream.read(&mut scratch) {
            // EOF. A stream's session hears of it; mid-request → drop
            // silently; idle with no bytes → plain close.
            Ok(0) => {
                match conn.state {
                    ConnState::Streaming(_) => self.stream_feed(slot, &[], true),
                    _ => self.close(slot, false),
                }
                false
            }
            // `advance` takes an idle connection with bytes to `Reading`.
            Ok(n) => {
                conn.inbuf.extend_from_slice(&scratch[..n]);
                conn.last_read = Instant::now();
                true
            }
            // Nothing yet: level-triggered readiness calls again.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => false,
            Err(_) => {
                self.close(slot, false);
                false
            }
        }
    }

    /// Drives the parse → dispatch state machine over whatever is
    /// buffered. Only meaningful in `Idle`/`Reading`/`Streaming`.
    fn advance(&mut self, slot: usize) {
        loop {
            let conn = match self.conns[slot].as_mut() {
                Some(c) => c,
                None => return,
            };
            match conn.state {
                ConnState::Idle | ConnState::Reading => {}
                // Whatever was read is the open stream's body.
                ConnState::Streaming(_) => {
                    let wire = std::mem::take(&mut conn.inbuf);
                    return self.stream_feed(slot, &wire, false);
                }
                _ => return,
            }
            if conn.head.is_none() {
                if conn.inbuf.is_empty() {
                    return;
                }
                if matches!(conn.state, ConnState::Idle) {
                    conn.state = ConnState::Reading;
                    self.set_deadline(slot, Instant::now() + self.cfg.request_deadline);
                    continue;
                }
                match parse_head(&conn.inbuf) {
                    Ok(None) => return, // need more bytes
                    Ok(Some((head, consumed))) => {
                        conn.inbuf.drain(..consumed);
                        if head.expect_continue && head.framing != BodyFraming::None {
                            conn.outbox.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                        }
                        let prior = conn.requests;
                        let ticket = self.issue_ticket(slot);
                        let opened = self.driver.open_stream(&head, ticket, prior);
                        let conn = self.conns[slot].as_mut().expect("checked");
                        if let Some(session) = opened {
                            // The `200` head goes out now; the next turn of
                            // this loop feeds the body bytes behind the head.
                            conn.requests += 1;
                            write_chunked_head(&mut conn.outbox, 200, "OK", "application/x-ndjson")
                                .expect("writes to memory");
                            conn.decoder = Some(BodyDecoder::unbounded(head.framing));
                            conn.state = ConnState::Streaming(OpenStream {
                                session,
                                wants_body: true,
                                stalled_since: None,
                            });
                            continue;
                        }
                        conn.decoder = Some(BodyDecoder::new(head.framing));
                        conn.head = Some(head);
                        if conn.outbox.len() > conn.outpos {
                            self.pump_out(slot);
                        }
                        continue;
                    }
                    Err(e) => {
                        self.fail_request(slot, &e);
                        return;
                    }
                }
            }
            // Head parsed: feed the body decoder.
            let conn = self.conns[slot].as_mut().expect("checked");
            let decoder = conn.decoder.as_mut().expect("decoder exists with head");
            let mut bodybuf = std::mem::take(&mut conn.bodybuf);
            let pushed = decoder.push(&conn.inbuf, &mut bodybuf);
            conn.bodybuf = bodybuf;
            match pushed {
                Ok(consumed) => {
                    conn.inbuf.drain(..consumed);
                    if !conn.decoder.as_ref().expect("checked").is_done() {
                        return; // need more bytes
                    }
                    self.dispatch_request(slot);
                }
                Err(e) => {
                    self.fail_request(slot, &e);
                    return;
                }
            }
        }
    }

    /// A parse/deadline failure: write the matching error envelope and
    /// close after draining.
    fn fail_request(&mut self, slot: usize, err: &ReadError) {
        self.driver.on_request_error();
        let (status, msg) = err.status();
        self.queue_response(slot, &HttpResponse::error(status, msg), false)
    }

    /// Hands the buffered request to the driver and transitions by its
    /// verdict.
    fn dispatch_request(&mut self, slot: usize) {
        let conn = self.conns[slot].as_mut().expect("dispatching live conn");
        let head = conn.head.take().expect("head parsed");
        conn.decoder = None;
        let body = std::mem::take(&mut conn.bodybuf);
        let prior = conn.requests;
        conn.requests += 1;
        conn.req_keep_alive = head.keep_alive;
        let req = HttpRequest::from_head(&head, body);
        let keep_wish = req.keep_alive;

        // Move to Dispatched *before* calling out so the ticket the driver
        // sees stays valid until the completion (or an immediate answer)
        // arrives.
        conn.state = ConnState::Dispatched(None);
        self.set_deadline(slot, Instant::now() + self.cfg.dispatch_timeout);
        let ticket = self.issue_ticket(slot);
        match self.driver.dispatch(ticket, req, prior) {
            Dispatch::Respond(resp) => self.queue_response(slot, &resp, keep_wish),
            // Pause reads until the completion arrives. An inline respond
            // moved straight on to Writing and never needed the change.
            Dispatch::Queued => self.set_interest(slot, 0),
        }
    }

    /// Renders `resp`, queues it on the outbox, and transitions to
    /// `Writing`.
    fn queue_response(&mut self, slot: usize, resp: &HttpResponse, req_keep_alive: bool) {
        let conn = match self.conns[slot].as_mut() {
            Some(c) => c,
            None => return,
        };
        let (bytes, keep) = render_http_response(resp, req_keep_alive);
        let sever = matches!(resp, HttpResponse::RawThenClose(_) | HttpResponse::Hangup);
        if bytes.is_empty() && sever {
            self.close(slot, true);
            return;
        }
        conn.outbox.extend_from_slice(&bytes);
        conn.state = ConnState::Writing { keep, sever };
        self.set_deadline(slot, Instant::now() + self.cfg.write_timeout);
        // Write optimistically; `pump_out` arms `EPOLLOUT` only when the
        // socket pushes back, so the common drained-in-one-write response
        // never touches `epoll_ctl`.
        self.pump_out(slot);
    }

    /// Writes outbox bytes until drained or `EAGAIN`.
    fn pump_out(&mut self, slot: usize) {
        loop {
            let conn = match self.conns[slot].as_mut() {
                Some(c) => c,
                None => return,
            };
            if conn.outpos >= conn.outbox.len() {
                conn.outbox.clear();
                conn.outpos = 0;
                self.finish_write(slot);
                return;
            }
            match conn.stream.write(&conn.outbox[conn.outpos..]) {
                Ok(0) => {
                    self.close(slot, false);
                    return;
                }
                Ok(n) => conn.outpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let interest = match &mut conn.state {
                        ConnState::Writing { .. } => EPOLLOUT,
                        // An un-drained outbox pauses a stream's intake.
                        ConnState::Streaming(open) => {
                            open.stalled_since.get_or_insert_with(Instant::now);
                            EPOLLOUT
                        }
                        _ => EPOLLIN | EPOLLOUT,
                    };
                    self.set_interest(slot, interest);
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot, false);
                    return;
                }
            }
        }
    }

    /// The outbox just drained; decide what the connection does next.
    fn finish_write(&mut self, slot: usize) {
        let conn = match self.conns[slot].as_mut() {
            Some(c) => c,
            None => return,
        };
        match &mut conn.state {
            &mut ConnState::Writing { keep, sever } => {
                if sever || !keep {
                    self.close(slot, sever);
                    return;
                }
                conn.head = None;
                conn.decoder = None;
                conn.bodybuf.clear();
                conn.state = ConnState::Idle;
                self.set_interest(slot, EPOLLIN);
                self.set_deadline(slot, Instant::now() + self.cfg.idle_timeout);
                // Pipelined bytes may already hold the next request.
                self.advance(slot);
            }
            // A mid-read flush (100 Continue): back to read-only interest.
            ConnState::Reading | ConnState::Idle => {
                self.set_interest(slot, EPOLLIN);
            }
            // Caught up with the client: intake may resume.
            ConnState::Streaming(open) => {
                open.stalled_since = None;
                let interest = if open.wants_body { EPOLLIN } else { 0 };
                self.set_interest(slot, interest);
            }
            ConnState::Dispatched(_) => {}
        }
    }

    /// Routes queued completions to their connections.
    fn drain_completions(&mut self) {
        for done in self.router.drain() {
            let (Completion::Response(ticket, ..) | Completion::Line(ticket, ..)) = done;
            let slot = ticket_slot(ticket);
            if self.gens.get(slot) != Some(&ticket_gen(ticket)) {
                continue; // the connection issued a later ticket, or closed
            }
            let Some(conn) = self.conns[slot].as_mut() else { continue };
            match (done, &mut conn.state) {
                // Ahead of its not-before: parked until its deadline (or
                // the dispatch backstop, if that comes first) fires.
                (Completion::Response(_, resp, Some(at)), ConnState::Dispatched(held @ None))
                    if at > Instant::now() =>
                {
                    *held = Some((at, resp));
                    let due = at.min(conn.deadline);
                    self.set_deadline(slot, due);
                }
                (Completion::Response(_, resp, _), ConnState::Dispatched(None)) => {
                    let keep = conn.req_keep_alive;
                    self.queue_response(slot, &resp, keep);
                }
                (Completion::Line(_, index, line), ConnState::Streaming(open)) => {
                    let next = open.session.on_line(index, line, &mut conn.outbox);
                    self.stream_settle(slot, next);
                }
                // A duplicate, or one for a request already answered.
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------ streaming

    /// Decodes `wire` bytes of a stream's body (`eof`: the peer sent FIN
    /// behind them) and hands the session what they decode to.
    fn stream_feed(&mut self, slot: usize, wire: &[u8], eof: bool) {
        let Some(conn) = self.conns[slot].as_mut() else { return };
        let ConnState::Streaming(open) = &mut conn.state else { return };
        let Some(decoder) = conn.decoder.as_mut() else { return };
        let mut body = std::mem::take(&mut conn.bodybuf);
        body.clear();
        // On a framing error `body` still holds what decoded before it.
        let end = match decoder.push(wire, &mut body) {
            Ok(_) if decoder.is_done() => Some(BodyEnd::Complete),
            Ok(_) if eof => Some(BodyEnd::Truncated),
            Ok(_) => None,
            Err(e) => Some(BodyEnd::Bad(e.status().1.to_string())),
        };
        if end.is_some() {
            conn.decoder = None;
        }
        let next = open.session.on_body(&body, end, &mut conn.outbox);
        conn.bodybuf = body;
        self.stream_settle(slot, next);
    }

    /// Applies a session's verdict: end the response, or flush what the
    /// event appended and re-point interest and the timer.
    fn stream_settle(&mut self, slot: usize, next: Next) {
        let Some(conn) = self.conns[slot].as_mut() else { return };
        let ConnState::Streaming(open) = &mut conn.state else { return };
        if next == Next::Close {
            // Replacing the state drops the session: with `close`, one of
            // the two places a stream ends.
            conn.state = ConnState::Writing { keep: false, sever: false };
            self.set_deadline(slot, Instant::now() + self.cfg.write_timeout);
            self.pump_out(slot);
            return;
        }
        open.wants_body = next == Next::Read && conn.decoder.is_some();
        // Drained → `finish_write`, `EAGAIN` → `pump_out`'s own `Streaming`
        // arm: either way the interest mask is right for the new verdict.
        self.pump_out(slot);
        // The stream's deadline is the session's own, or the write stall's
        // if that comes first.
        let Some(conn) = self.conns[slot].as_ref() else { return };
        let ConnState::Streaming(open) = &conn.state else { return };
        let stall = open.stalled_since.map(|since| since + self.cfg.write_timeout);
        let due = stall.into_iter().fold(open.session.deadline(Instant::now()), Instant::min);
        self.set_deadline(slot, due);
    }

    /// A stream's timer event (also sent once when shutdown begins): cut a
    /// reader that stopped reading, else let the session check its clocks.
    fn stream_timer(&mut self, slot: usize) {
        let now = Instant::now();
        let write_timeout = self.cfg.write_timeout;
        let Some(conn) = self.conns[slot].as_mut() else { return };
        let ConnState::Streaming(open) = &mut conn.state else { return };
        if open.stalled_since.is_some_and(|since| now >= since + write_timeout) {
            return self.close(slot, false);
        }
        let next = open.session.on_timer(now, &mut conn.outbox);
        self.stream_settle(slot, next);
    }

    /// A connection's timer entry fired. One that a later push superseded
    /// is a no-op; one that fired ahead of a deadline that moved later
    /// re-arms; otherwise the budget for the current state ran out.
    fn handle_timer(&mut self, token: u64) {
        let Some(slot) = self.live_slot(token) else { return };
        let conn = self.conns[slot].as_mut().expect("live");
        let now = Instant::now();
        if conn.armed.is_some_and(|at| now < at) {
            return;
        }
        conn.armed = None;
        if now < conn.deadline {
            let deadline = conn.deadline;
            return self.set_deadline(slot, deadline);
        }
        match &mut conn.state {
            ConnState::Streaming(_) => self.stream_timer(slot),
            // A held completion whose instant has come is written; any
            // other expiry here is the dispatch backstop's.
            ConnState::Dispatched(held) => match held.take_if(|(at, _)| now >= *at) {
                Some((_, resp)) => {
                    let keep = conn.req_keep_alive;
                    self.queue_response(slot, &resp, keep);
                }
                None => self.close(slot, false),
            },
            // A dribbling client (bytes within the grace window) earns the
            // `408`; one that went silent mid-request is closed without a
            // response.
            ConnState::Reading if conn.last_read.elapsed() < self.cfg.read_grace => {
                self.fail_request(slot, &ReadError::TooSlow)
            }
            _ => self.close(slot, false),
        }
    }
}

// ------------------------------------------------------------------- tests

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::HttpResponse;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// How the test driver answers [`Driver::dispatch`].
    enum Mode {
        /// Respond inline, echoing the path and body length.
        Echo,
        /// Respond inline with an `n`-byte body (exercises partial writes).
        Big(usize),
        /// Record the ticket and return [`Dispatch::Queued`] (the response
        /// arrives later through the [`Router`]).
        Queue,
    }

    struct TestDriver {
        mode: Mode,
        tickets: Mutex<Vec<Ticket>>,
        closed: AtomicUsize,
        errors: AtomicUsize,
        /// Filler bytes in each result line of a `/stream` session.
        line_len: AtomicUsize,
        /// `/stream` sessions emit nothing themselves: the test routes
        /// lines back through the [`Router`] by the recorded ticket.
        deferred: AtomicBool,
    }

    /// A session that answers each newline-terminated body line with one
    /// chunked result line, in order, and ends when the body does.
    struct TestStream {
        line_len: usize,
        deferred: bool,
        mid_line: bool,
        taken: usize,
        emitted: usize,
        body_over: bool,
    }

    impl TestStream {
        fn emit(&mut self, out: &mut Vec<u8>) {
            let line = format!("{:06} {}\n", self.emitted, "x".repeat(self.line_len));
            crate::http::write_chunk(out, line.as_bytes()).expect("memory write");
            self.emitted += 1;
        }

        fn next(&mut self, out: &mut Vec<u8>) -> Next {
            if !self.body_over {
                return Next::Read;
            }
            if self.emitted < self.taken {
                return Next::Hold;
            }
            crate::http::write_last_chunk(out).expect("memory write");
            Next::Close
        }
    }

    impl StreamHooks for TestStream {
        fn on_body(&mut self, bytes: &[u8], end: Option<BodyEnd>, out: &mut Vec<u8>) -> Next {
            for &b in bytes {
                self.mid_line = b != b'\n';
                if !self.mid_line {
                    self.taken += 1;
                    if !self.deferred {
                        self.emit(out);
                    }
                }
            }
            self.body_over = end.is_some();
            self.next(out)
        }
        fn on_line(&mut self, index: usize, _line: String, out: &mut Vec<u8>) -> Next {
            assert_eq!(index, self.emitted, "the test routes lines in order");
            self.emit(out);
            self.next(out)
        }
        fn on_timer(&mut self, _now: Instant, out: &mut Vec<u8>) -> Next {
            self.next(out)
        }
        fn deadline(&self, now: Instant) -> Instant {
            now + Duration::from_secs(3600)
        }
    }

    impl Driver<UnixStream> for TestDriver {
        type Stream = TestStream;

        fn open_stream(&self, head: &Head, ticket: Ticket, _prior: u64) -> Option<TestStream> {
            if head.path != "/stream" {
                return None;
            }
            self.tickets.lock().expect("tickets").push(ticket);
            Some(TestStream {
                line_len: self.line_len.load(Ordering::SeqCst),
                deferred: self.deferred.load(Ordering::SeqCst),
                mid_line: false,
                taken: 0,
                emitted: 0,
                body_over: false,
            })
        }

        fn dispatch(&self, ticket: Ticket, req: HttpRequest, _prior: u64) -> Dispatch {
            match self.mode {
                Mode::Echo => Dispatch::Respond(HttpResponse::json(
                    200,
                    format!("{{\"path\":\"{}\",\"len\":{}}}\n", req.path, req.body.len()),
                )),
                Mode::Big(n) => Dispatch::Respond(HttpResponse::json(200, "x".repeat(n))),
                Mode::Queue => {
                    self.tickets.lock().expect("tickets").push(ticket);
                    Dispatch::Queued
                }
            }
        }
        fn on_request_error(&self) {
            self.errors.fetch_add(1, Ordering::SeqCst);
        }
        fn on_close(&self) {
            self.closed.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn reactor(cfg: ReactorConfig, mode: Mode) -> Reactor<UnixStream, TestDriver> {
        Reactor::new(
            cfg,
            TestDriver {
                mode,
                tickets: Mutex::new(Vec::new()),
                closed: AtomicUsize::new(0),
                errors: AtomicUsize::new(0),
                line_len: AtomicUsize::new(0),
                deferred: AtomicBool::new(false),
            },
        )
        .expect("reactor")
    }

    fn request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
        let mut v = format!("{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len())
            .into_bytes();
        v.extend_from_slice(body);
        v
    }

    /// Drains whatever the peer end has buffered; returns true on EOF.
    fn read_available(mut peer: &UnixStream, out: &mut Vec<u8>) -> bool {
        peer.set_nonblocking(true).expect("peer nonblocking");
        let mut buf = [0u8; 64 * 1024];
        loop {
            match peer.read(&mut buf) {
                Ok(0) => return true,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
    }

    /// True once `buf` holds at least one complete response (head + the
    /// declared content-length of body bytes).
    fn response_complete(buf: &[u8]) -> bool {
        let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return false;
        };
        let head = String::from_utf8_lossy(&buf[..pos]);
        let len = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        buf.len() >= pos + 4 + len
    }

    fn count(buf: &[u8], needle: &[u8]) -> usize {
        buf.windows(needle.len()).filter(|w| *w == needle).count()
    }

    /// Turns the reactor until `done` holds (asserting a wall-clock bound).
    fn drive_until(
        r: &mut Reactor<UnixStream, TestDriver>,
        budget: Duration,
        mut done: impl FnMut() -> bool,
    ) {
        drive_with(r, budget, |_| done());
    }

    /// [`drive_until`] for a condition that looks into the reactor.
    fn drive_with(
        r: &mut Reactor<UnixStream, TestDriver>,
        budget: Duration,
        mut done: impl FnMut(&Reactor<UnixStream, TestDriver>) -> bool,
    ) {
        let end = Instant::now() + budget;
        while !done(r) {
            assert!(Instant::now() < end, "reactor did not converge within {budget:?}");
            r.turn(Duration::from_millis(2)).expect("turn");
        }
    }

    /// Turns the reactor until it owns no connections.
    fn drive_until_empty(r: &mut Reactor<UnixStream, TestDriver>, budget: Duration) {
        let end = Instant::now() + budget;
        while r.connections() != 0 {
            assert!(Instant::now() < end, "connections not reaped within {budget:?}");
            r.turn(Duration::from_millis(2)).expect("turn");
        }
    }

    const SEC: Duration = Duration::from_secs(5);

    /// Queues one request on a fresh connection and returns its peer end
    /// and ticket (the `n`th the driver has recorded).
    fn queued_request(r: &mut Reactor<UnixStream, TestDriver>, n: usize) -> (UnixStream, Ticket) {
        let (a, b) = UnixStream::pair().expect("pair");
        r.insert(a).expect("insert");
        (&b).write_all(&request("POST", "/v1/annotate", b"{}")).expect("write");
        drive_with(r, SEC, |r| r.driver().tickets.lock().expect("tickets").len() > n);
        let ticket = r.driver().tickets.lock().expect("tickets")[n];
        (b, ticket)
    }

    // ------------------------------------------------------------ timers

    #[test]
    fn heap_fires_in_deadline_order_and_never_early() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut h = TimerHeap::default();
        assert_eq!(h.next_timeout(t0), None);
        h.insert(t0 + ms(25), 1);
        h.insert(t0 + ms(5), 2);
        h.insert(t0 + ms(25), 3);
        assert_eq!(h.next_timeout(t0), Some(ms(5)), "the earliest deadline, exactly");
        let mut out = Vec::new();
        h.expire(t0 + ms(5) - Duration::from_nanos(1), &mut out);
        assert!(out.is_empty(), "nothing fires before its deadline");
        h.expire(t0 + ms(5), &mut out);
        assert_eq!(out, vec![2], "a deadline fires at its own instant");
        out.clear();
        h.expire(t0 + ms(24), &mut out);
        assert!(out.is_empty());
        h.expire(t0 + ms(25), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 3], "equal deadlines both fire");
        assert_eq!(h.next_timeout(t0), None);

        // Several due at once come out in deadline order, not insert order.
        out.clear();
        h.insert(t0 + ms(40), 4);
        h.insert(t0 + ms(30), 5);
        h.insert(t0 + ms(35), 6);
        h.expire(t0 + ms(50), &mut out);
        assert_eq!(out, vec![5, 6, 4]);

        // A deadline already past fires on the next expire.
        out.clear();
        h.insert(t0, 7);
        assert_eq!(h.next_timeout(t0 + ms(50)), Some(Duration::ZERO));
        h.expire(t0 + ms(50), &mut out);
        assert_eq!(out, vec![7]);
    }

    // ------------------------------------------------------- event loop

    /// An idle reactor sleeps on its empty timer heap: over a second it
    /// waits once or twice (a 100 ms cap on each turn would make that 10),
    /// and a stop raised from another thread with a nudge ends `run` at
    /// once.
    #[test]
    fn an_idle_reactor_sleeps_until_nudged() {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut r = reactor(ReactorConfig::default(), Mode::Echo);
                tx.send(r.router()).expect("hand out the router");
                r.run(&stop, Duration::from_secs(5)).expect("run");
                r.waits
            })
        };
        let router = rx.recv().expect("router");
        std::thread::sleep(Duration::from_secs(1));
        let asked = Instant::now();
        stop.store(true, Ordering::SeqCst);
        router.nudge();
        let waits = runner.join().expect("reactor thread");
        let took = asked.elapsed();
        assert!(took < Duration::from_millis(50), "stopped {took:?} after the nudge");
        assert!(waits <= 3, "an idle reactor waited {waits} times in 1 s");
    }

    #[test]
    fn echo_round_trip_and_keep_alive_reuse() {
        let mut r = reactor(ReactorConfig::default(), Mode::Echo);
        let (a, b) = UnixStream::pair().expect("pair");
        r.insert(a).expect("insert");
        assert_eq!(r.connections(), 1);

        (&b).write_all(&request("GET", "/v1/healthz", b"")).expect("write");
        let mut buf = Vec::new();
        drive_until(&mut r, SEC, || {
            read_available(&b, &mut buf);
            response_complete(&buf)
        });
        let text = String::from_utf8_lossy(&buf).into_owned();
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("\"path\":\"/v1/healthz\""), "{text}");

        // Same socket, second request: keep-alive re-parks and re-serves.
        buf.clear();
        (&b).write_all(&request("POST", "/annotate", b"hello")).expect("write");
        drive_until(&mut r, SEC, || {
            read_available(&b, &mut buf);
            response_complete(&buf)
        });
        let text = String::from_utf8_lossy(&buf).into_owned();
        assert!(text.contains("\"len\":5"), "{text}");
        assert_eq!(r.connections(), 1, "keep-alive parks the connection");
        assert_eq!(r.driver().errors.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let mut r = reactor(ReactorConfig::default(), Mode::Echo);
        let (a, b) = UnixStream::pair().expect("pair");
        r.insert(a).expect("insert");

        let mut two = request("GET", "/first", b"");
        two.extend_from_slice(&request("GET", "/second", b""));
        (&b).write_all(&two).expect("write");

        let mut buf = Vec::new();
        drive_until(&mut r, SEC, || {
            read_available(&b, &mut buf);
            count(&buf, b"HTTP/1.1 200") == 2
        });
        let text = String::from_utf8_lossy(&buf).into_owned();
        let first = text.find("/first").expect("first answered");
        let second = text.find("/second").expect("second answered");
        assert!(first < second, "responses in request order: {text}");
        assert_eq!(r.connections(), 1);
    }

    #[test]
    fn large_response_drains_through_partial_writes() {
        // ~1 MiB >> the socketpair buffer, so pump_out must hit EAGAIN and
        // resume from EPOLLOUT several times while the peer drains.
        const N: usize = 1 << 20;
        let mut r = reactor(ReactorConfig::default(), Mode::Big(N));
        let (a, b) = UnixStream::pair().expect("pair");
        r.insert(a).expect("insert");

        (&b).write_all(&request("GET", "/big", b"")).expect("write");
        let mut buf = Vec::new();
        drive_until(&mut r, Duration::from_secs(20), || {
            read_available(&b, &mut buf);
            response_complete(&buf)
        });
        let body_start = buf.windows(4).position(|w| w == b"\r\n\r\n").expect("head complete") + 4;
        assert_eq!(buf.len() - body_start, N, "full body drained");
        assert!(buf[body_start..].iter().all(|&c| c == b'x'));
        assert_eq!(r.connections(), 1, "connection survives the drain");
    }

    #[test]
    fn queued_completion_routes_back_to_its_connection() {
        let mut r = reactor(ReactorConfig::default(), Mode::Queue);
        let router = r.router();
        let (b, ticket) = queued_request(&mut r, 0);

        router.complete(ticket, HttpResponse::json(200, "{\"done\":true}\n"), None);
        let mut buf = Vec::new();
        drive_until(&mut r, SEC, || {
            read_available(&b, &mut buf);
            response_complete(&buf)
        });
        let text = String::from_utf8_lossy(&buf).into_owned();
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("\"done\":true"), "{text}");
        assert_eq!(r.connections(), 1);
    }

    #[test]
    fn stale_completion_for_a_reaped_connection_is_dropped() {
        // Dispatch backstop fires before the worker answers; the late
        // completion must be discarded by epoch (the close retired the
        // connection and its ticket), not delivered.
        let cfg = ReactorConfig {
            dispatch_timeout: Duration::from_millis(40),
            ..ReactorConfig::default()
        };
        let mut r = reactor(cfg, Mode::Queue);
        let router = r.router();
        let (b, ticket) = queued_request(&mut r, 0);
        drive_until_empty(&mut r, SEC);

        // The worker answers a connection that no longer exists.
        router.complete(ticket, HttpResponse::json(200, "{\"late\":true}\n"), None);
        let deadline = Instant::now() + Duration::from_millis(50);
        while Instant::now() < deadline {
            r.turn(Duration::from_millis(2)).expect("turn");
        }
        let mut buf = Vec::new();
        assert!(read_available(&b, &mut buf), "peer sees EOF");
        assert!(buf.is_empty(), "nothing written for the dead connection");
        assert_eq!(r.connections(), 0);
    }

    #[test]
    fn duplicate_completion_for_an_answered_request_is_dropped() {
        let mut r = reactor(ReactorConfig::default(), Mode::Queue);
        let router = r.router();
        let (b, first) = queued_request(&mut r, 0);
        router.complete(first, HttpResponse::json(200, "{\"first\":true}\n"), None);
        let mut buf = Vec::new();
        drive_until(&mut r, SEC, || {
            read_available(&b, &mut buf);
            response_complete(&buf)
        });
        assert!(String::from_utf8_lossy(&buf).contains("\"first\":true"));

        // Repeated while the connection is parked, then while its next
        // request is dispatched: neither answers anything.
        router.complete(first, HttpResponse::json(200, "{\"dup\":1}\n"), None);
        r.turn(Duration::from_millis(2)).expect("turn");
        (&b).write_all(&request("POST", "/v1/annotate", b"{}")).expect("write");
        drive_with(&mut r, SEC, |r| r.driver().tickets.lock().expect("tickets").len() > 1);
        let second = r.driver().tickets.lock().expect("tickets")[1];
        assert_ne!(first, second, "each request gets its own ticket");
        router.complete(first, HttpResponse::json(200, "{\"dup\":2}\n"), None);
        r.turn(Duration::from_millis(2)).expect("turn");
        router.complete(second, HttpResponse::json(200, "{\"second\":true}\n"), None);
        buf.clear();
        drive_until(&mut r, SEC, || {
            read_available(&b, &mut buf);
            response_complete(&buf)
        });
        let text = String::from_utf8_lossy(&buf).into_owned();
        assert!(text.contains("\"second\":true") && !text.contains("dup"), "{text}");
        assert_eq!(r.connections(), 1);
    }

    #[test]
    fn keep_alive_requests_do_not_grow_the_timer_heap() {
        let mut r = reactor(ReactorConfig::default(), Mode::Echo);
        let (a, b) = UnixStream::pair().expect("pair");
        r.insert(a).expect("insert");
        let req = request("GET", "/v1/healthz", b"");
        let mut buf = Vec::new();
        for n in 1..=10_000 {
            (&b).write_all(&req).expect("write");
            buf.clear();
            drive_until(&mut r, SEC, || {
                read_available(&b, &mut buf);
                response_complete(&buf)
            });
            if n == 100 || n == 10_000 {
                let entries = r.timers.heap.len();
                assert!(entries <= 4, "{entries} heap entries after {n} requests");
            }
        }
        assert_eq!(r.connections(), 1);
    }

    #[test]
    fn held_completion_is_written_by_its_timer_and_blocks_nobody() {
        let tick = Duration::from_millis(50);
        let cfg = ReactorConfig::default();
        let mut r = reactor(cfg, Mode::Queue);
        let router = r.router();
        let (held_peer, held) = queued_request(&mut r, 0);
        let not_before = Instant::now() + 3 * tick;
        router.complete(held, HttpResponse::json(200, "{\"held\":true}\n"), Some(not_before));

        // While it is held, another connection is served start to finish.
        let (other_peer, other) = queued_request(&mut r, 1);
        router.complete(other, HttpResponse::json(200, "{\"other\":true}\n"), None);
        let (mut held_buf, mut other_buf) = (Vec::new(), Vec::new());
        drive_until(&mut r, SEC, || {
            read_available(&other_peer, &mut other_buf);
            response_complete(&other_buf)
        });
        assert!(Instant::now() < not_before, "the second request was answered within the hold");
        read_available(&held_peer, &mut held_buf);
        assert!(held_buf.is_empty(), "nothing on the wire before the not-before");

        let mut first_byte = None;
        drive_until(&mut r, SEC, || {
            read_available(&held_peer, &mut held_buf);
            first_byte = first_byte.or((!held_buf.is_empty()).then(Instant::now));
            response_complete(&held_buf)
        });
        assert!(first_byte.expect("written") >= not_before, "a timer never fires early");
        assert!(String::from_utf8_lossy(&held_buf).contains("\"held\":true"));
        assert_eq!(r.connections(), 2, "both connections parked for keep-alive");

        // A not-before already in the past is no hold at all.
        let (late_peer, late) = queued_request(&mut r, 2);
        router.complete(late, HttpResponse::json(200, "{\"late\":true}\n"), Some(not_before));
        r.turn(Duration::from_millis(2)).expect("turn");
        let mut late_buf = Vec::new();
        read_available(&late_peer, &mut late_buf);
        assert!(response_complete(&late_buf), "written in the turn that drained it");
    }

    #[test]
    fn held_completion_for_a_reaped_connection_is_dropped() {
        let tick = Duration::from_millis(5);
        let cfg = ReactorConfig::default();
        let mut r = reactor(cfg, Mode::Queue);
        let router = r.router();
        let (peer, ticket) = queued_request(&mut r, 0);
        let not_before = Instant::now() + 4 * tick;
        router.complete(ticket, HttpResponse::json(200, "{\"held\":true}\n"), Some(not_before));
        r.turn(Duration::from_millis(2)).expect("turn");

        // The client goes away while its response is held; its slot gets a
        // new tenant before the hold's timer fires.
        drop(peer);
        drive_until_empty(&mut r, SEC);
        let (a2, b2) = UnixStream::pair().expect("pair");
        r.insert(a2).expect("insert");
        while Instant::now() < not_before + 4 * tick {
            r.turn(Duration::from_millis(2)).expect("turn");
        }
        let mut stray = Vec::new();
        assert!(!read_available(&b2, &mut stray), "the slot's new tenant stays open");
        assert!(stray.is_empty(), "and was sent nothing: {stray:?}");
        assert_eq!(r.connections(), 1);
    }

    #[test]
    fn deadline_dribbler_gets_408() {
        // Partial head, then silence — but within the grace window, so the
        // reactor owes the client a 408 before closing.
        let cfg = ReactorConfig {
            request_deadline: Duration::from_millis(50),
            read_grace: Duration::from_secs(10),
            ..ReactorConfig::default()
        };
        let mut r = reactor(cfg, Mode::Echo);
        let (a, b) = UnixStream::pair().expect("pair");
        r.insert(a).expect("insert");
        (&b).write_all(b"GET /slow HTT").expect("write");

        let mut buf = Vec::new();
        drive_until(&mut r, SEC, || {
            read_available(&b, &mut buf);
            response_complete(&buf)
        });
        let text = String::from_utf8_lossy(&buf).into_owned();
        assert!(text.starts_with("HTTP/1.1 408"), "{text}");
        assert!(text.contains("\"code\":\"request_timeout\""), "{text}");
        drive_until_empty(&mut r, SEC);
        assert_eq!(r.driver().errors.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deadline_silent_client_is_closed_without_a_response() {
        // With no grace window every mid-request expiry looks like a dead
        // client: silent close, no 408.
        let cfg = ReactorConfig {
            request_deadline: Duration::from_millis(50),
            read_grace: Duration::ZERO,
            ..ReactorConfig::default()
        };
        let mut r = reactor(cfg, Mode::Echo);
        let (a, b) = UnixStream::pair().expect("pair");
        r.insert(a).expect("insert");
        (&b).write_all(b"GET /quiet HTT").expect("write");

        drive_until_empty(&mut r, SEC);
        let mut buf = Vec::new();
        assert!(read_available(&b, &mut buf), "peer sees EOF");
        assert!(buf.is_empty(), "silent close writes nothing");
    }

    #[test]
    fn idle_timeout_reaps_parked_connections() {
        let cfg =
            ReactorConfig { idle_timeout: Duration::from_millis(40), ..ReactorConfig::default() };
        let mut r = reactor(cfg, Mode::Echo);
        let peers: Vec<UnixStream> = (0..3)
            .map(|_| {
                let (a, b) = UnixStream::pair().expect("pair");
                r.insert(a).expect("insert");
                b
            })
            .collect();
        assert_eq!(r.connections(), 3);

        drive_until_empty(&mut r, SEC);
        assert_eq!(r.driver().closed.load(Ordering::SeqCst), 3);
        for b in &peers {
            let mut buf = Vec::new();
            assert!(read_available(b, &mut buf), "idle peer closed");
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn idle_fleet_parks_while_one_connection_serves() {
        let mut r = reactor(ReactorConfig::default(), Mode::Echo);
        let idle: Vec<UnixStream> = (0..256)
            .map(|_| {
                let (a, b) = UnixStream::pair().expect("pair");
                r.insert(a).expect("insert");
                b
            })
            .collect();
        let (a, active) = UnixStream::pair().expect("pair");
        r.insert(a).expect("insert");
        assert_eq!(r.connections(), 257);

        (&active).write_all(&request("GET", "/only", b"")).expect("write");
        let mut buf = Vec::new();
        drive_until(&mut r, SEC, || {
            read_available(&active, &mut buf);
            response_complete(&buf)
        });
        let text = String::from_utf8_lossy(&buf).into_owned();
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("\"path\":\"/only\""), "{text}");

        for b in &idle {
            let mut scratch = Vec::new();
            assert!(!read_available(b, &mut scratch), "idle peers stay open");
            assert!(scratch.is_empty(), "idle peers receive nothing");
        }
        assert_eq!(r.connections(), 257, "every connection still parked");
    }

    // --------------------------------------------------------- streaming

    const STREAM_HEAD: &[u8] = b"POST /stream HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";

    /// `n` body lines of `width` bytes, one chunk each, with the last chunk.
    fn stream_body(n: usize, width: usize) -> Vec<u8> {
        let mut wire = Vec::new();
        for i in 0..n {
            let line = format!("{i:0w$}\n", w = width - 1);
            crate::http::write_chunk(&mut wire, line.as_bytes()).expect("memory write");
        }
        crate::http::write_last_chunk(&mut wire).expect("memory write");
        wire
    }

    /// Writes as much of `wire[*sent..]` as the nonblocking peer takes.
    fn write_available(mut peer: &UnixStream, wire: &[u8], sent: &mut usize) {
        peer.set_nonblocking(true).expect("peer nonblocking");
        while *sent < wire.len() {
            match peer.write(&wire[*sent..]) {
                Ok(n) => *sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("peer write: {e}"),
            }
        }
    }

    fn outbox_len(r: &Reactor<UnixStream, TestDriver>, slot: usize) -> usize {
        r.conns[slot].as_ref().map_or(0, |c| c.outbox.len() - c.outpos)
    }

    #[test]
    fn stream_chunks_drain_through_partial_writes_while_the_body_keeps_arriving() {
        // 300 result lines of ~4 KB against a socketpair buffer of a few
        // hundred KB: the outbox must meet EAGAIN, resume from EPOLLOUT,
        // and intake must resume behind it — all on one connection.
        const LINES: usize = 300;
        let mut r = reactor(ReactorConfig::default(), Mode::Echo);
        r.driver().line_len.store(4096, Ordering::SeqCst);
        let (a, b) = UnixStream::pair().expect("pair");
        r.insert(a).expect("insert");

        let mut wire = STREAM_HEAD.to_vec();
        wire.extend_from_slice(&stream_body(LINES, 64));
        let (mut sent, mut turns, mut stalled) = (0usize, 0usize, false);
        let mut buf = Vec::new();
        drive_with(&mut r, Duration::from_secs(20), |r| {
            write_available(&b, &wire, &mut sent);
            stalled |= outbox_len(r, 0) > 0;
            turns += 1;
            // Let the outbox back up before the peer starts reading.
            (stalled || turns > 2000) && read_available(&b, &mut buf)
        });
        assert!(stalled, "the outbox never met EAGAIN; the test needs bigger lines");
        assert_eq!(sent, wire.len(), "the whole body was taken in");
        let text = String::from_utf8_lossy(&buf).into_owned();
        assert!(text.starts_with("HTTP/1.1 200"), "{}", &text[..text.len().min(200)]);
        assert!(text.contains("transfer-encoding: chunked"));
        let mut at = 0;
        for i in 0..LINES {
            let tag = format!("\r\n{i:06} x");
            at += text[at..].find(&tag).unwrap_or_else(|| panic!("line {i} missing or late"));
        }
        assert!(text.ends_with("0\r\n\r\n"), "terminating chunk");
        assert_eq!(r.connections(), 0, "a finished stream closes its connection");
    }

    #[test]
    fn stream_line_for_a_reaped_slot_is_dropped() {
        let mut r = reactor(ReactorConfig::default(), Mode::Echo);
        r.driver().deferred.store(true, Ordering::SeqCst);
        let router = r.router();
        let (a, b) = UnixStream::pair().expect("pair");
        r.insert(a).expect("insert");
        let mut wire = STREAM_HEAD.to_vec();
        crate::http::write_chunk(&mut wire, b"one\ntwo\n").expect("memory write");
        (&b).write_all(&wire).expect("write");
        let mut buf = Vec::new();
        drive_until(&mut r, SEC, || {
            read_available(&b, &mut buf);
            buf.ends_with(b"\r\n\r\n")
        });
        let ticket = r.driver().tickets.lock().expect("tickets")[0];

        // The first line reaches the open stream.
        router.line(ticket, 0, String::new());
        drive_until(&mut r, SEC, || {
            read_available(&b, &mut buf);
            count(&buf, b"000000 ") == 1
        });

        // The client goes away; its slot is taken by a new connection.
        drop(b);
        drive_until_empty(&mut r, SEC);
        let (a2, b2) = UnixStream::pair().expect("pair");
        r.insert(a2).expect("insert");
        router.line(ticket, 1, String::new());
        let deadline = Instant::now() + Duration::from_millis(50);
        while Instant::now() < deadline {
            r.turn(Duration::from_millis(2)).expect("turn");
        }
        let mut stray = Vec::new();
        assert!(!read_available(&b2, &mut stray), "the slot's new tenant stays open");
        assert!(stray.is_empty(), "and was sent nothing: {stray:?}");
        assert_eq!(r.connections(), 1);
    }

    #[test]
    fn stream_reader_that_never_reads_is_paused_then_severed() {
        // 2,000 tables of 256 bytes, ~1 KB of result each, and a peer that
        // never reads: intake must stop once the socket pushes back (the
        // outbox holds at most what one 16 KB read produced — 64 lines),
        // other connections must be served meanwhile, and `write_timeout`
        // must cut the stream.
        const WINDOW: usize = 64;
        let cfg =
            ReactorConfig { write_timeout: Duration::from_millis(150), ..ReactorConfig::default() };
        let mut r = reactor(cfg, Mode::Echo);
        r.driver().line_len.store(1024, Ordering::SeqCst);
        let (a, b) = UnixStream::pair().expect("pair");
        r.insert(a).expect("insert");
        let (a2, other) = UnixStream::pair().expect("pair");
        r.insert(a2).expect("insert");

        let mut wire = STREAM_HEAD.to_vec();
        wire.extend_from_slice(&stream_body(2000, 256));
        let t0 = Instant::now();
        let (mut sent, mut peak, mut asked) = (0usize, 0usize, false);
        let mut answer = Vec::new();
        drive_with(&mut r, Duration::from_secs(10), |r| {
            if r.connections() == 2 {
                write_available(&b, &wire, &mut sent);
            }
            peak = peak.max(outbox_len(r, 0));
            if peak > 0 && !asked {
                // The stream is stalled right now: ask on the other socket.
                (&other).write_all(&request("POST", "/v1/annotate", b"{}")).expect("write");
                asked = true;
            }
            read_available(&other, &mut answer);
            r.connections() == 1 && response_complete(&answer)
        });
        assert!(t0.elapsed() < Duration::from_secs(5), "severed after {:?}", t0.elapsed());
        assert!(String::from_utf8_lossy(&answer).contains("\"path\":\"/v1/annotate\""));
        assert!(sent < wire.len(), "intake paused: {sent} of {} bytes taken", wire.len());
        let line = 6 + 1 + 1024 + 1 + 8; // tag, space, filler, newline, chunk framing
        assert!(peak <= WINDOW * line + 256, "outbox peaked at {peak} bytes");
        assert_eq!(r.driver().closed.load(Ordering::SeqCst), 1);
    }
}
