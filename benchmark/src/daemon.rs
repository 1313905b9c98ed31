//! The daemon workloads: `serve_open` (open loop, Poisson arrivals at a
//! fixed rate, timed from the due time) and `serve_stream` (closed loop,
//! one pipelined `/v1/annotate_stream` per connection), both against a
//! `doduo-served` started from the generated checkpoint with its default
//! flags, in a child process of its own so that its CPU time, memory and
//! start-up belong to it alone.
//!
//! The daemon is confined to one processor and the load generator, a single
//! thread, to another ([`Placement`]): the two never compete, and the
//! generator can read the host gauge on the daemon's processor whenever the
//! daemon is idle (between stream sessions, between open-loop arrivals).

use crate::common::{
    digest_of, fill_end_to_end, fill_trace_latency, sample_indices, setup_median, EndToEnd, Meter,
    RunCfg, GATE_SAMPLES,
};
use crate::gauge::{calibrate, slowdown_of, Gauge, Stretch, REFERENCE_MS};
use crate::host::{self, pin_to, Placement};
use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::schedule::{backlog_growing, poisson_due_ns, timing};
use crate::staged::StagedReplay;
use crate::stats;
use crate::trace::{SpanId, Trace, NO_PARENT};
use crate::world::{Inputs, CHECKPOINT_FILE};
use doduo_core::AnnotatorBundle;
use doduo_serve::BatchAnnotator;
use doduo_served::handler::{render_http_response, HttpResponse};
use doduo_served::http::{self, parse_head, write_chunk, BodyDecoder, BodyFraming, Client};
use doduo_served::json::{
    annotation_to_json, annotations_response, table_from_json, tables_from_request, Json,
    StreamSplitter,
};
use doduo_served::validate::offline_response;
use doduo_table::Table;
use epoll::{poll_one, Epoll, EPOLLIN, POLLIN};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Arrival rate of `serve_open`, frozen: about half of what one connection
/// sending one table at a time gets out of the seed commit's daemon on the
/// two-core bench host (see the README for how it was sized). Never
/// calibrated at run time: a faster daemon must show as lower latency at
/// this rate, not as a higher rate.
pub const OPEN_RATE_PER_S: f64 = 60.0;
/// Latency limit of `serve_open`, from the due time.
pub const OPEN_LIMIT_MS: f64 = 25.0;
/// Tables in flight per `serve_stream` connection, and tables per session.
pub const STREAM_WINDOW: usize = 16;
pub const STREAM_SESSION: usize = 128;
/// How long the open loop waits for stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(5);
/// The open loop sleeps in `ppoll` until this long before a due time and
/// spins the rest: a timer wake-up can be tens of microseconds late.
const SPIN: Duration = Duration::from_micros(500);
/// The open loop reads the gauge at most this often, and only when nothing
/// is in flight and the next send is at least `GAUGE_ROOM` away (a reading
/// takes about 0.6 ms on the daemon's processor).
const GAUGE_EVERY: Duration = Duration::from_millis(100);
const GAUGE_ROOM: Duration = Duration::from_millis(2);

/// One gauge reading on the daemon's processor, taken by the calling
/// (load-generator) thread while the daemon is idle.
fn read_gauge_at_daemon(place: Placement, gauge: &Gauge) -> f64 {
    pin_to(place.measured_cpu);
    let ms = gauge.read_ms();
    pin_to(place.load_cpu);
    ms
}

/// A running daemon child.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Starts `doduo-served` (this executable's `daemon` mode) on an
    /// ephemeral port and returns once `/v1/readyz` answers 200.
    fn spawn(dir: &Path, place: Placement) -> Daemon {
        let port_file = dir.join(format!("port-{}", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let exe = std::env::current_exe().expect("own executable path");
        // A child inherits the processor set of the thread that starts it.
        pin_to(place.measured_cpu);
        let child = Command::new(exe)
            .arg("daemon")
            .arg("--checkpoint")
            .arg(dir.join(CHECKPOINT_FILE))
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn();
        pin_to(place.load_cpu);
        let child = child.expect("daemon child starts");
        let mut daemon = Daemon { child, addr: String::new() };
        let deadline = Instant::now() + Duration::from_secs(30);
        while daemon.addr.is_empty() {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                daemon.addr = text.trim().to_string();
            } else {
                daemon.check_alive(deadline);
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        let _ = std::fs::remove_file(&port_file);
        loop {
            let ready = Client::connect(&daemon.addr, Some(Duration::from_secs(5)))
                .and_then(|mut c| c.request("GET", "/v1/readyz", b""))
                .is_ok_and(|r| r.status == 200);
            if ready {
                return daemon;
            }
            daemon.check_alive(deadline);
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn check_alive(&mut self, deadline: Instant) {
        let exited = self.child.try_wait().expect("daemon child can be polled");
        assert!(exited.is_none(), "daemon exited before it was ready: {exited:?}");
        assert!(Instant::now() < deadline, "daemon was not ready within 30 s");
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn stats(&self) -> Json {
        let resp = Client::connect(&self.addr, Some(Duration::from_secs(5)))
            .and_then(|mut c| c.request("GET", "/v1/stats", b""))
            .expect("daemon answers /v1/stats");
        Json::parse(String::from_utf8_lossy(&resp.body).trim()).expect("/v1/stats is JSON")
    }

    /// Asks the daemon to shut down and waits until the process has ended.
    fn stop(mut self) {
        let asked = Client::connect(&self.addr, Some(Duration::from_secs(5)))
            .and_then(|mut c| c.request("POST", "/v1/shutdown", b""))
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(10);
        while asked && Instant::now() < deadline {
            if self.child.try_wait().ok().flatten().is_some() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Dropping kills and reaps whatever is still there.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One request body per line of the mix input file.
fn read_bodies(cfg: &RunCfg) -> Vec<String> {
    std::fs::read_to_string(cfg.dir.join(Inputs::Mix.file()))
        .expect("generated inputs must read")
        .lines()
        .map(str::to_string)
        .collect()
}

/// What came back for one table.
struct Reply {
    /// Index of the body sent.
    idx: usize,
    /// Nanoseconds from the start of the run.
    due_ns: u64,
    sent_ns: u64,
    first_byte_ns: u64,
    done_ns: u64,
    /// HTTP status, 0 when the connection failed first.
    status: u16,
    body: Vec<u8>,
}

impl Reply {
    /// A request for body `idx`, due (and so far neither sent nor answered).
    fn new(idx: usize, due_ns: u64) -> Reply {
        Reply { idx, due_ns, sent_ns: 0, first_byte_ns: 0, done_ns: 0, status: 0, body: Vec::new() }
    }
}

/// Pulls one complete HTTP response off the front of `buf`.
fn take_response(buf: &mut Vec<u8>) -> Option<(u16, Vec<u8>)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let length: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    if buf.len() < head_end + length {
        return None;
    }
    let body = buf[head_end..head_end + length].to_vec();
    buf.drain(..head_end + length);
    Some((status, body))
}

fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/annotate HTTP/1.1\r\nhost: localhost\r\nconnection: keep-alive\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One keep-alive connection of the open loop.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Indices into `replies` of the requests sent and not yet answered.
    inflight: VecDeque<usize>,
}

/// What the open loop brings back.
struct OpenLoop {
    replies: Vec<Reply>,
    /// `(sent_ns, requests in flight)` at every send.
    outstanding: Vec<(u64, u32)>,
    /// `(taken_ns, gauge reading in ms)`.
    readings: Vec<(u64, f64)>,
    /// The daemon's CPU seconds from `measure_from` to the last answer.
    cpu_s: f64,
}

/// The open loop, one thread over `conns` connections: sends request `k`
/// when it is due, on the connection the schedule names, whether or not
/// earlier ones have been answered (HTTP/1.1 pipelining on keep-alive
/// connections), reads responses as they arrive, and times each from its
/// due time. The thread sleeps in `ppoll` until a socket is readable or the
/// next send is due, and reads the gauge when the daemon has nothing to do.
/// `schedule` is `(due_ns, connection, body index)`, ascending.
fn open_loop(
    daemon: &Daemon,
    place: Placement,
    schedule: &[(u64, usize, usize)],
    conns: usize,
    requests: &[Vec<u8>],
    measure_from: Duration,
) -> OpenLoop {
    let origin = Instant::now();
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let mut run = OpenLoop {
        replies: schedule.iter().map(|&(due_ns, _, idx)| Reply::new(idx, due_ns)).collect(),
        outstanding: Vec::with_capacity(schedule.len()),
        readings: Vec::new(),
        cpu_s: 0.0,
    };
    let epoll = Epoll::new().expect("epoll instance");
    let mut lanes: Vec<Conn> = Vec::with_capacity(conns);
    for c in 0..conns {
        let Ok(stream) = TcpStream::connect(&daemon.addr) else { return run };
        let _ = stream.set_nodelay(true);
        epoll.add(stream.as_raw_fd(), c as u64, EPOLLIN).expect("socket joins the epoll set");
        lanes.push(Conn { stream, rbuf: Vec::new(), inflight: VecDeque::new() });
    }
    let gauge = Gauge::new();
    let mut last_reading = Duration::ZERO;
    let mut meter: Option<Meter> = None;
    let mut events = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut next = 0usize;
    let mut in_flight = 0usize;
    let mut drain_until: Option<Instant> = None;
    'run: loop {
        if meter.is_none() && origin.elapsed() >= measure_from {
            meter = Some(Meter::start(daemon.pid()));
        }
        if next < schedule.len() && now_ns() >= schedule[next].0 {
            // The send is timed when it is issued: on loopback the write
            // itself runs the receiver's side of the stack.
            let lane = &mut lanes[schedule[next].1];
            run.replies[next].sent_ns = now_ns();
            if lane.stream.write_all(&requests[schedule[next].2]).is_err() {
                break;
            }
            lane.inflight.push_back(next);
            in_flight += 1;
            run.outstanding.push((run.replies[next].sent_ns, in_flight as u32));
            next += 1;
            continue;
        }
        let until_next = match schedule.get(next) {
            Some(&(due_ns, _, _)) => Duration::from_nanos(due_ns.saturating_sub(now_ns())),
            None if in_flight == 0 => break,
            None => {
                let until = *drain_until.get_or_insert_with(|| Instant::now() + DRAIN);
                if Instant::now() >= until {
                    break;
                }
                Duration::from_millis(50)
            }
        };
        if in_flight == 0
            && until_next >= GAUGE_ROOM
            && origin.elapsed() >= last_reading + GAUGE_EVERY
        {
            last_reading = origin.elapsed();
            run.readings.push((now_ns(), read_gauge_at_daemon(place, &gauge)));
            continue;
        }
        let ready = poll_one(epoll.as_raw_fd(), POLLIN, Some(until_next.saturating_sub(SPIN)));
        if !ready.is_ok_and(|revents| revents != 0) {
            continue;
        }
        let _ = epoll.wait(&mut events, conns, Some(Duration::ZERO));
        for ev in &events {
            let lane = &mut lanes[ev.token as usize];
            let n = match lane.stream.read(&mut chunk) {
                Ok(0) | Err(_) => break 'run,
                Ok(n) => n,
            };
            let read_ns = now_ns();
            lane.rbuf.extend_from_slice(&chunk[..n]);
            loop {
                // Bytes on the wire belong to the oldest request in flight.
                match lane.inflight.front() {
                    Some(&k) if !lane.rbuf.is_empty() && run.replies[k].first_byte_ns == 0 => {
                        run.replies[k].first_byte_ns = read_ns
                    }
                    _ => {}
                }
                let Some((status, body)) = take_response(&mut lane.rbuf) else { break };
                let Some(k) = lane.inflight.pop_front() else { break };
                in_flight -= 1;
                run.replies[k].status = status;
                run.replies[k].body = body;
                run.replies[k].done_ns = read_ns;
            }
        }
    }
    run.cpu_s = meter.map_or(0.0, |m| m.cpu_s());
    run
}

/// One session of the closed loop: up to [`STREAM_SESSION`] tables through
/// one `/v1/annotate_stream` request, at most [`STREAM_WINDOW`] in flight,
/// the next table sent only when a result has come back. No table is sent
/// once `end` has passed or `replies` holds `max_tables`. What was sent is
/// appended to `replies`; returns false when the session broke.
fn stream_session(
    addr: &str,
    origin: Instant,
    end: Instant,
    max_tables: usize,
    idx_of: impl Fn(usize) -> usize,
    bodies: &[String],
    replies: &mut Vec<Reply>,
) -> bool {
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let session_start = replies.len();
    let Ok(mut c) = Client::connect(addr, Some(Duration::from_secs(30))) else {
        return false;
    };
    if c.stream_open("/v1/annotate_stream").is_err() || !matches!(c.stream_status(), Ok(200)) {
        return false;
    }
    let (mut sent, mut recvd, mut finished) = (0usize, 0usize, false);
    let ok = loop {
        // Fill the window, or end the upload when the session is over.
        let mut io_ok = true;
        while io_ok && !finished && sent - recvd < STREAM_WINDOW {
            if sent == STREAM_SESSION || Instant::now() >= end || replies.len() == max_tables {
                io_ok = c.stream_finish().is_ok();
                finished = true;
                break;
            }
            let idx = idx_of(replies.len());
            let now = now_ns();
            replies.push(Reply { sent_ns: now, ..Reply::new(idx, now) });
            io_ok = c.stream_send(format!("{}\n", bodies[idx]).as_bytes()).is_ok();
            sent += 1;
        }
        if !io_ok {
            break false;
        }
        // With everything answered the upload is over: expect the end
        // of the response. Otherwise wait for the oldest table's line.
        let line = c.stream_next_line();
        if recvd == sent {
            break matches!(line, Ok(None));
        }
        let Ok(Some(line)) = line else { break false };
        let r = &mut replies[session_start + recvd];
        r.done_ns = now_ns();
        r.first_byte_ns = r.done_ns;
        r.status = 200;
        r.body = line.into_bytes();
        recvd += 1;
    };
    if !ok {
        // Whatever the broken session left unanswered has failed.
        for r in replies[session_start..].iter_mut().filter(|r| r.done_ns == 0) {
            r.done_ns = now_ns();
        }
    }
    ok
}

/// Compares every reply with the first one seen for the same table,
/// digests one output per table in input order, and checks a seeded sample
/// byte for byte against the offline reference. Returns the indices (into
/// `replies`) of replies that failed.
fn gate(cfg: &RunCfg, bodies: &[String], replies: &[Reply], out: &mut Outcome) -> Vec<bool> {
    let mut first: Vec<Option<&[u8]>> = vec![None; bodies.len()];
    let mut bad = vec![false; replies.len()];
    for (k, r) in replies.iter().enumerate() {
        if r.status != 200 {
            bad[k] = true;
            continue;
        }
        match first[r.idx] {
            None => first[r.idx] = Some(r.body.as_slice()),
            Some(f) => bad[k] = f != r.body.as_slice(),
        }
    }
    let seen: Vec<usize> = (0..bodies.len()).filter(|&i| first[i].is_some()).collect();
    out.note(
        "output_digest",
        format!("\"{}\"", digest_of(seen.iter().map(|&i| first[i].expect("seen")))),
    );
    let bundle = AnnotatorBundle::load_from(cfg.dir.join(CHECKPOINT_FILE))
        .expect("generated checkpoint must load");
    let mut wrong = vec![false; bodies.len()];
    let sample = sample_indices(cfg.seed, seen.len(), GATE_SAMPLES);
    for &s in &sample {
        let i = seen[s];
        let reference = offline_response(&bundle, &bodies[i]);
        if reference.as_deref().map(str::as_bytes) != Ok(first[i].expect("seen")) {
            wrong[i] = true;
            eprintln!("[benchmark] response for table {i} differs from the offline reference");
        }
    }
    out.note("gate_samples", sample.len());
    for (k, r) in replies.iter().enumerate() {
        bad[k] |= r.status == 200 && wrong[r.idx];
    }
    bad
}

/// The gauge reading taken nearest to `at_ns` (the reference where the run
/// took none): `readings` are `(taken_ns, ms)`, ascending.
fn nearest_reading(readings: &[(u64, f64)], at_ns: u64) -> f64 {
    let after = readings.partition_point(|r| r.0 < at_ns);
    let candidates = &readings[after.saturating_sub(1)..(after + 1).min(readings.len())];
    candidates.iter().min_by_key(|r| r.0.abs_diff(at_ns)).map_or(REFERENCE_MS, |r| r.1)
}

/// Runs the open loop over `total` on `nproc` connections: a Poisson
/// schedule per connection, merged and sent by one thread.
fn drive_open_loop(
    cfg: &RunCfg,
    daemon: &Daemon,
    place: Placement,
    bodies: &[String],
    total: Duration,
    measure_from: Duration,
) -> OpenLoop {
    let requests: Vec<Vec<u8>> = bodies.iter().map(|b| request_bytes(b)).collect();
    let (conns, n) = (place.nproc, bodies.len());
    let mut schedule: Vec<(u64, usize, usize)> = (0..conns)
        .flat_map(|c| {
            poisson_due_ns(cfg.seed, c, conns, OPEN_RATE_PER_S, total.as_nanos() as u64)
                .into_iter()
                .enumerate()
                .map(move |(k, due_ns)| (due_ns, c, (c + k * conns) % n))
        })
        .collect();
    schedule.sort_unstable();
    let mut run = open_loop(daemon, place, &schedule, conns, &requests, measure_from);
    run.outstanding.sort_unstable();
    run
}

pub fn run_open(cfg: &RunCfg) -> Outcome {
    if cfg.trace {
        return run_open_traced(cfg);
    }
    let bodies = read_bodies(cfg);
    let place = Placement::of_host();
    let (setup_s, daemon) = spawn_median(cfg, place);
    let (warm, window) = (cfg.warm(), cfg.window());
    let run = drive_open_loop(cfg, &daemon, place, &bodies, warm + window, warm);
    let peak = host::peak_rss_mb(daemon.pid()).unwrap_or(0.0);
    daemon.stop();

    let mut out = Outcome { correct: true, ..Outcome::default() };
    let bad = gate(cfg, &bodies, &run.replies, &mut out);
    let warm_ns = warm.as_nanos() as u64;
    let (mut latencies, mut scaled, mut within, mut done) = (Vec::new(), Vec::new(), 0u64, 0u64);
    for (r, bad) in run.replies.iter().zip(&bad) {
        // Warm-up requests are checked but not measured.
        out.failed += u64::from(*bad);
        if r.due_ns < warm_ns {
            continue;
        }
        out.attempted += 1;
        if !*bad {
            let ms = timing(r.due_ns, r.sent_ns, r.done_ns).latency_ns as f64 / 1e6;
            // The limit is held against the latency on the reference host:
            // scaled by the gauge reading nearest in time, like every time
            // this benchmark bounds.
            let at_reference = ms * REFERENCE_MS / nearest_reading(&run.readings, r.due_ns);
            latencies.push(ms);
            scaled.push(at_reference);
            done += 1;
            within += u64::from(at_reference <= OPEN_LIMIT_MS);
        }
    }
    out.correct = out.failed == 0 && !latencies.is_empty();
    if latencies.is_empty() {
        latencies.push(DRAIN.as_secs_f64() * 1e3);
        scaled.push(DRAIN.as_secs_f64() * 1e3);
    }
    let readings: Vec<f64> = run.readings.iter().filter(|r| r.0 >= warm_ns).map(|r| r.1).collect();
    // The arrival rate fixes the throughput: it is reported as counted.
    // CPU time per table is scaled by the gauge like everywhere else.
    let per_s = done as f64 / window.as_secs_f64();
    let e = EndToEnd {
        setup_s,
        tables_done: done,
        tables_per_s: per_s,
        raw_tables_per_s: per_s,
        cpu_s: run.cpu_s,
        slowdown: slowdown_of(&readings),
        peak_rss_mb: peak,
        within_limit: within,
    };
    scaled.sort_by(f64::total_cmp);
    out.note("latency_p50_at_reference_ms", stats::percentile_sorted(&scaled, 50.0));
    fill_end_to_end(&mut out, &e, &mut latencies);
    out.note("gauge_readings", readings.len());
    out.note("rate_per_s", OPEN_RATE_PER_S);
    out.note("limit_ms", OPEN_LIMIT_MS);
    out.fill_missing(END_TO_END);
    out
}

/// Spawn-to-ready, several times (a daemon that is no longer needed is
/// killed when dropped, before the next start is timed); the median and
/// the last daemon, left running.
fn spawn_median(cfg: &RunCfg, place: Placement) -> (f64, Daemon) {
    setup_median(|| Daemon::spawn(&cfg.dir, place))
}

/// What the closed loop brings back.
struct ClosedLoop {
    /// Every table sent from the first measured session on.
    replies: Vec<Reply>,
    /// One stretch per measured session.
    stretches: Vec<Stretch>,
    /// The daemon's CPU seconds over the measured sessions.
    cpu_s: f64,
}

/// Runs the closed loop, one session after another on one connection at a
/// time: whole sessions until `warm` has passed, then measured sessions
/// until `window` has (or `max_tables` were sent). The gauge is read on the
/// daemon's processor between sessions, when the daemon is idle.
fn drive_stream(
    daemon: &Daemon,
    place: Placement,
    bodies: &[String],
    warm: Duration,
    window: Duration,
    max_tables: usize,
) -> ClosedLoop {
    let origin = Instant::now();
    let far = origin + Duration::from_secs(3600);
    let gauge = Gauge::new();
    let mut replies: Vec<Reply> = Vec::new();
    let idx_of = |k: usize| k % bodies.len();
    while origin.elapsed() < warm {
        if !stream_session(&daemon.addr, origin, far, usize::MAX, idx_of, bodies, &mut replies) {
            break;
        }
    }
    // Warm-up tables were sent and checked by the daemon, not measured.
    replies.clear();
    let mut stretches = Vec::new();
    let meter = Meter::start(daemon.pid());
    let end = Instant::now() + window;
    let mut before = read_gauge_at_daemon(place, &gauge);
    while Instant::now() < end && replies.len() < max_tables {
        let (start, first) = (Instant::now(), replies.len());
        let ok =
            stream_session(&daemon.addr, origin, end, max_tables, idx_of, bodies, &mut replies);
        let work_s = start.elapsed().as_secs_f64();
        let after = read_gauge_at_daemon(place, &gauge);
        let tables = replies[first..].iter().filter(|r| r.status == 200).count() as u64;
        stretches.push(Stretch { work_s, tables, gauge_ms: (before + after) / 2.0 });
        before = after;
        if !ok {
            break;
        }
    }
    ClosedLoop { replies, stretches, cpu_s: meter.cpu_s() }
}

pub fn run_stream(cfg: &RunCfg) -> Outcome {
    if cfg.trace {
        return run_stream_traced(cfg);
    }
    let bodies = read_bodies(cfg);
    let place = Placement::of_host();
    let (setup_s, daemon) = spawn_median(cfg, place);
    let run = drive_stream(&daemon, place, &bodies, cfg.warm(), cfg.window(), usize::MAX);
    let peak = host::peak_rss_mb(daemon.pid()).unwrap_or(0.0);
    daemon.stop();

    let mut out = Outcome { correct: true, ..Outcome::default() };
    let bad = gate(cfg, &bodies, &run.replies, &mut out);
    let (mut latencies, mut done) = (Vec::new(), 0u64);
    for (r, bad) in run.replies.iter().zip(&bad) {
        out.failed += u64::from(*bad);
        out.attempted += 1;
        if !*bad {
            latencies.push((r.done_ns - r.sent_ns) as f64 / 1e6);
            done += 1;
        }
    }
    out.correct = out.failed == 0 && !latencies.is_empty();
    if latencies.is_empty() {
        latencies.push(0.0);
    }
    let live = run.stretches.iter().any(|s| s.tables > 0);
    let cal = live.then(|| calibrate(&run.stretches));
    let e = EndToEnd {
        setup_s,
        tables_done: done,
        tables_per_s: cal.map_or(0.0, |c| 1e3 / c.per_table_ms),
        raw_tables_per_s: cal.map_or(0.0, |c| 1e3 / c.raw_per_table_ms),
        cpu_s: run.cpu_s,
        slowdown: cal.map_or(1.0, |c| c.slowdown),
        peak_rss_mb: peak,
        within_limit: done,
    };
    fill_end_to_end(&mut out, &e, &mut latencies);
    out.note("sessions", run.stretches.len());
    out.note("stream_window", STREAM_WINDOW);
    out.note("stream_session", STREAM_SESSION);
    out.fill_missing(END_TO_END);
    out
}

// ------------------------------------------------------------- traced runs

/// Polls `/v1/stats` at 10 Hz for the deepest queue seen. Only traced runs
/// start it: it is a third connection the untraced load must not have.
fn sample_queue_depth(daemon: &Daemon, stop: &AtomicBool) -> f64 {
    let mut max = 0.0f64;
    while !stop.load(Ordering::SeqCst) {
        if let Some(d) = daemon.stats().get("queue_depth").and_then(Json::as_f64) {
            max = max.max(d);
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    max
}

fn stat(v: &Json, path: &[&str]) -> f64 {
    path.iter().try_fold(v, |v, k| v.get(k)).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The `served.*` counters as differences of two `/v1/stats` snapshots.
fn fill_stats_delta(out: &mut Outcome, before: &Json, after: &Json) {
    let delta = |path: &[&str]| stat(after, path) - stat(before, path);
    out.set("served.batches", delta(&["batch_tables", "total_count"]));
    // The daemon is fresh, so the mean over its batch ring is this run's.
    out.set("served.batch_tables_mean", stat(after, &["batch_tables", "mean"]));
    out.set("served.flush_budget", delta(&["flushes", "budget"]));
    out.set("served.flush_deadline", delta(&["flushes", "deadline"]));
    out.set("served.sheds", delta(&["rejected_queue_full"]));
    out.set("served.cache_hit_ratio", stat(after, &["cache_hit_rate"]));
    out.set("served.server_latency_p50_ms", stat(after, &["latency_ms", "p50"]));
}

/// The serving path of one table replayed in this process on the bytes
/// that went over the wire, as re-based children of `parent` (the client's
/// wait for the response): HTTP parse, JSON decode, the engine call as a
/// batch of one (with its own layers below it), JSON encode, HTTP render.
fn replay_request(
    staged: &mut StagedReplay<'_>,
    trace: &mut Trace,
    op: u32,
    parent: SpanId,
    wire: &[u8],
    streamed: bool,
) {
    let ns = |start: Instant| start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let doc: String = if streamed {
        // `wire` is one chunk of the upload: chunk framing, then the
        // document splitter.
        let mut decoder = BodyDecoder::new(BodyFraming::Chunked);
        let mut body = Vec::new();
        decoder.push(wire, &mut body).expect("own chunk framing decodes");
        let mut docs = StreamSplitter::new(http::MAX_BODY_BYTES).push(&body).expect("splits");
        docs.pop().expect("one document per chunk")
    } else {
        let (head, used) = parse_head(wire).expect("own request parses").expect("complete head");
        let mut decoder = BodyDecoder::new(head.framing);
        let mut body = Vec::new();
        decoder.push(&wire[used..], &mut body).expect("own body decodes");
        String::from_utf8(body).expect("request bodies are UTF-8")
    };
    trace.replayed(op, "served.http_parse", parent, start, ns(start));

    let start = Instant::now();
    let table: Table = if streamed {
        table_from_json(&Json::parse(&doc).expect("own document parses")).expect("is a table")
    } else {
        tables_from_request(&doc).expect("own request decodes").0.remove(0)
    };
    trace.replayed(op, "served.json_decode", parent, start, ns(start));

    let (call, _) = staged.seam(trace, op, parent, false, std::slice::from_ref(&table));
    staged.replay(trace, op, &call, std::slice::from_ref(&table));
    let anns = call.anns;

    let start = Instant::now();
    let body = if streamed {
        let mut line = annotation_to_json(&anns[0]);
        line.push('\n');
        line
    } else {
        annotations_response(&anns, false)
    };
    trace.replayed(op, "served.json_encode", parent, start, ns(start));

    let start = Instant::now();
    if streamed {
        let mut wire_out = Vec::with_capacity(body.len() + 16);
        write_chunk(&mut wire_out, body.as_bytes()).expect("writes to memory");
        std::hint::black_box(wire_out);
    } else {
        std::hint::black_box(render_http_response(&HttpResponse::json(200, body), true));
    }
    trace.replayed(op, "served.http_render", parent, start, ns(start));
}

/// What both traced daemon runs do after the client side is over: replay
/// every table's serving path under its wait span, derive the per-layer
/// metrics, and write the trace.
#[allow(clippy::too_many_arguments)]
fn finish_traced(
    cfg: &RunCfg,
    bodies: &[String],
    replies: &[Reply],
    wait_spans: &[SpanId],
    mut trace: Trace,
    mut out: Outcome,
    client_s: f64,
    streamed: bool,
) -> Outcome {
    let bundle = AnnotatorBundle::load_from(cfg.dir.join(CHECKPOINT_FILE))
        .expect("generated checkpoint must load");
    let engine = BatchAnnotator::new(Arc::new(bundle));
    let mut staged = StagedReplay::new(&engine);
    let replay_start = Instant::now();
    for ((k, r), &wait) in replies.iter().enumerate().zip(wait_spans) {
        let wire = if streamed {
            let mut w = Vec::new();
            write_chunk(&mut w, format!("{}\n", bodies[r.idx]).as_bytes()).expect("memory write");
            w
        } else {
            request_bytes(&bodies[r.idx])
        };
        replay_request(&mut staged, &mut trace, k as u32, wait, &wire, streamed);
    }
    let replay_s = replay_start.elapsed().as_secs_f64();
    out.failed += staged.failed;
    out.correct = out.failed == 0;

    staged.fill_metrics(&trace, &mut out);
    let totals = trace.totals();
    for name in
        ["served.http_parse", "served.json_decode", "served.json_encode", "served.http_render"]
    {
        out.set(&format!("{name}_s"), totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9));
    }
    fill_trace_latency(&mut out, trace.durations_ms_of(if streamed { "table" } else { "request" }));
    let wait_name = if streamed { "table" } else { "client.server_wait" };
    let mut residual: Vec<f64> =
        trace.self_ns_of(wait_name).iter().map(|&ns| ns as f64 / 1e6).collect();
    if !residual.is_empty() {
        residual.sort_by(f64::total_cmp);
        out.set("served.residual_ms_p50", stats::percentile_sorted(&residual, 50.0));
    }
    out.set("bench.trace_overhead_ratio", (client_s + replay_s) / client_s);
    out.note("trace_spans", trace.spans.len());
    cfg.write_trace(&trace);
    out.fill_missing(PER_LAYER);
    out
}

fn run_open_traced(cfg: &RunCfg) -> Outcome {
    let bodies = read_bodies(cfg);
    let place = Placement::of_host();
    let (ready_s, daemon) = spawn_median(cfg, place);
    let total = Duration::from_secs_f64(cfg.trace_tables as f64 / OPEN_RATE_PER_S);
    let before = daemon.stats();
    let stop = AtomicBool::new(false);
    let meter = Meter::start(daemon.pid());
    let (replies, samples, queue_max) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_queue_depth(&daemon, &stop));
        let run = drive_open_loop(cfg, &daemon, place, &bodies, total, Duration::ZERO);
        stop.store(true, Ordering::SeqCst);
        (run.replies, run.outstanding, sampler.join().expect("sampler ran"))
    });
    let (cpu_s, client_s) = (meter.cpu_s(), meter.elapsed_s());
    let after = daemon.stats();
    daemon.stop();

    let mut out = Outcome { correct: true, ..Outcome::default() };
    let bad = gate(cfg, &bodies, &replies, &mut out);
    out.attempted = replies.len() as u64;
    out.failed = bad.iter().filter(|b| **b).count() as u64;

    // Client-side spans: due -> sent -> first byte -> done.
    let mut trace = Trace::new();
    let origin = Instant::now();
    let at = |ns: u64| origin + Duration::from_nanos(ns);
    let mut wait_spans = Vec::with_capacity(replies.len());
    let mut late_ms = Vec::with_capacity(replies.len());
    for (k, r) in replies.iter().enumerate() {
        let op = k as u32;
        let done = r.done_ns.max(r.sent_ns);
        let first = r.first_byte_ns.clamp(r.sent_ns, done);
        let root = trace.real(op, "request", NO_PARENT, at(r.due_ns), at(done));
        trace.real(op, "client.send_late", root, at(r.due_ns), at(r.sent_ns));
        wait_spans.push(trace.real(op, "client.server_wait", root, at(r.sent_ns), at(first)));
        trace.real(op, "client.read", root, at(first), at(done));
        late_ms.push(timing(r.due_ns, r.sent_ns, done).late_ns as f64 / 1e6);
    }
    fill_stats_delta(&mut out, &before, &after);
    out.set("served.queue_depth_max", queue_max);
    out.set("served.ready_s", ready_s);
    out.set("served.cpu_s", cpu_s);
    late_ms.sort_by(f64::total_cmp);
    out.set("bench.send_late_ms_p99", stats::percentile_sorted(&late_ms, 99.0));
    out.note("send_late_ms_p50", stats::percentile_sorted(&late_ms, 50.0));
    out.note("send_late_ms_p90", stats::percentile_sorted(&late_ms, 90.0));
    out.note("send_late_ms_max", stats::percentile_sorted(&late_ms, 100.0));
    out.set("bench.backlog_growing", f64::from(u8::from(backlog_growing(&samples))));
    finish_traced(cfg, &bodies, &replies, &wait_spans, trace, out, client_s, false)
}

fn run_stream_traced(cfg: &RunCfg) -> Outcome {
    let bodies = read_bodies(cfg);
    let place = Placement::of_host();
    let (ready_s, daemon) = spawn_median(cfg, place);
    let before = daemon.stats();
    let stop = AtomicBool::new(false);
    let meter = Meter::start(daemon.pid());
    // `trace_tables` tables, one session after another.
    let (replies, queue_max) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_queue_depth(&daemon, &stop));
        let long = Duration::from_secs(120);
        let run = drive_stream(&daemon, place, &bodies, Duration::ZERO, long, cfg.trace_tables);
        stop.store(true, Ordering::SeqCst);
        (run.replies, sampler.join().expect("sampler ran"))
    });
    let (cpu_s, client_s) = (meter.cpu_s(), meter.elapsed_s());
    let after = daemon.stats();
    daemon.stop();

    let mut out = Outcome { correct: true, ..Outcome::default() };
    let bad = gate(cfg, &bodies, &replies, &mut out);
    out.attempted = replies.len() as u64;
    out.failed = bad.iter().filter(|b| **b).count() as u64;

    // Client-side spans: table sent -> its NDJSON line read.
    let mut trace = Trace::new();
    let origin = Instant::now();
    let at = |ns: u64| origin + Duration::from_nanos(ns);
    let wait_spans: Vec<SpanId> = replies
        .iter()
        .enumerate()
        .map(|(k, r)| {
            trace.real(k as u32, "table", NO_PARENT, at(r.sent_ns), at(r.done_ns.max(r.sent_ns)))
        })
        .collect();
    fill_stats_delta(&mut out, &before, &after);
    out.set("served.queue_depth_max", queue_max);
    out.set("served.ready_s", ready_s);
    out.set("served.cpu_s", cpu_s);
    finish_traced(cfg, &bodies, &replies, &wait_spans, trace, out, client_s, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_taken_whole_and_in_order() {
        let mut buf = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 503 Busy\r\ncontent-length: 0\r\n\r\nHTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nxy".to_vec();
        assert_eq!(take_response(&mut buf), Some((200, b"abc".to_vec())));
        assert_eq!(take_response(&mut buf), Some((503, Vec::new())));
        assert_eq!(take_response(&mut buf), None, "body still incomplete");
        buf.extend_from_slice(b"z12");
        assert_eq!(take_response(&mut buf), Some((200, b"xyz12".to_vec())));
        assert!(buf.is_empty());
    }

    #[test]
    fn the_nearest_reading_is_picked_on_either_side() {
        let readings = [(100, 0.2), (200, 0.3), (400, 0.4)];
        assert_eq!(nearest_reading(&readings, 0), 0.2);
        assert_eq!(nearest_reading(&readings, 140), 0.2);
        assert_eq!(nearest_reading(&readings, 160), 0.3);
        assert_eq!(nearest_reading(&readings, 310), 0.4);
        assert_eq!(nearest_reading(&readings, 9000), 0.4);
        assert_eq!(nearest_reading(&[], 5), REFERENCE_MS);
    }

    #[test]
    fn own_request_bytes_parse_as_the_daemon_parses_them() {
        let wire = request_bytes("{\"columns\":[[\"a\"]]}");
        let (head, used) = parse_head(&wire).expect("parses").expect("complete");
        assert_eq!((head.method.as_str(), head.path.as_str()), ("POST", "/v1/annotate"));
        assert!(head.keep_alive);
        assert_eq!(head.framing, BodyFraming::Length(wire.len() - used));
    }
}
