//! The replica supervisor: spawns N `doduo-served` child processes,
//! discovers their ephemeral ports, probes readiness, restarts crashes
//! under a rate-limited budget, and escalates permanent failures.
//!
//! ## Lifecycle of one replica slot
//!
//! ```text
//! Starting ──(port file + /readyz 200)──▶ Ready
//!    │  ▲                                  │
//!    │  └──(backoff elapsed: respawn)──┐   │ child exits, or /readyz
//!    │                                 │   │ fails repeatedly
//!    └──(startup deadline: kill)──▶  Down ◀┘
//!                                      │
//!                  (restart budget exhausted within the window)
//!                                      ▼
//!                                   Failed   (permanent; escalated)
//! ```
//!
//! Restarts back off exponentially (seeded jitter, see
//! [`crate::backoff::Backoff`]) and are budgeted: more than
//! `restart_budget` respawns inside `restart_window` marks the slot
//! [`ReplicaState::Failed`] — a crash loop is a deploy problem, not
//! something to hide behind infinite restarts. A spawn that fails outright
//! (missing or non-executable `program`) is charged like a crash, so a
//! fleet that can never start ends `Failed` too.
//!
//! ## Admission and the fleet model
//!
//! The [`Registry`] owns the committed fleet model: the blob of the last
//! `POST /v1/model` fan-out that every ready replica accepted, or nothing
//! while the boot checkpoint is still the fleet model. A started or
//! restarted replica boots on that checkpoint, so it is **admitted only
//! after `/readyz` returns 200 and the committed blob is installed on it**
//! — the balancer never routes to a process that is still loading, nor to
//! one that would answer with a model the fleet has left. The push holds
//! the fleet model through admission, so no fan-out commits in between; a
//! fan-out that holds it makes admission wait a tick, and a failed push
//! leaves the slot `Starting` under its startup deadline.

use crate::backoff::Backoff;
use doduo_served::http::{Client, Response};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

/// Read timeout for one `/readyz` probe.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);
/// `Ready` replicas are probed every this many ticks (`Starting` ones every
/// tick, so re-admission is prompt).
const READY_PROBE_EVERY: u32 = 5;
/// A child not ready within this long after its spawn is killed.
const STARTUP_DEADLINE: Duration = Duration::from_secs(120);

/// How the supervisor launches and polices replica children.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// The binary to spawn (usually `doduo-balance` itself, see
    /// `prefix_args`, or a `doduo-served` binary directly).
    pub program: PathBuf,
    /// Arguments prepended before the daemon flags — `["replica"]` when
    /// `program` is `doduo-balance` (self-exec), empty for `doduo-served`.
    pub prefix_args: Vec<String>,
    /// Daemon flags shared by every replica (model source, workers, ...).
    /// `--addr 127.0.0.1:0` and `--port-file` are appended automatically.
    pub common_args: Vec<String>,
    /// Extra flags per replica index (e.g. a `--chaos` spec for replica 0);
    /// may be shorter than the replica count.
    pub per_replica_args: Vec<Vec<String>>,
    /// Number of replica children.
    pub replicas: usize,
    /// Directory for the per-replica port files.
    pub port_dir: PathBuf,
    /// Supervisor tick interval (child liveness + readiness probing).
    pub probe_interval: Duration,
    /// First respawn delay after a crash (doubles per consecutive crash).
    pub restart_backoff_base: Duration,
    /// Ceiling on the respawn delay.
    pub restart_backoff_cap: Duration,
    /// Respawns allowed within `restart_window` before the slot is marked
    /// permanently [`ReplicaState::Failed`].
    pub restart_budget: usize,
    /// The sliding window the budget is measured over.
    pub restart_window: Duration,
    /// Seed for restart-backoff jitter.
    pub seed: u64,
}

impl SupervisorConfig {
    /// A config with production-shaped defaults for `replicas` children of
    /// `program`.
    pub fn new(program: PathBuf, replicas: usize) -> SupervisorConfig {
        SupervisorConfig {
            program,
            prefix_args: Vec::new(),
            common_args: Vec::new(),
            per_replica_args: Vec::new(),
            replicas,
            port_dir: std::env::temp_dir(),
            probe_interval: Duration::from_millis(100),
            restart_backoff_base: Duration::from_millis(100),
            restart_backoff_cap: Duration::from_secs(2),
            restart_budget: 5,
            restart_window: Duration::from_secs(30),
            seed: 0,
        }
    }
}

/// Where a replica slot is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaState {
    /// Child spawned; waiting for its port file and a passing `/readyz`.
    Starting,
    /// Admitted for traffic.
    Ready,
    /// Child dead or unresponsive; a respawn is scheduled.
    Down,
    /// Restart budget exhausted — permanently out of rotation.
    Failed,
}

impl ReplicaState {
    /// Lower-case name for logs and `/stats`.
    pub fn as_str(self) -> &'static str {
        match self {
            ReplicaState::Starting => "starting",
            ReplicaState::Ready => "ready",
            ReplicaState::Down => "down",
            ReplicaState::Failed => "failed",
        }
    }
}

/// A point-in-time public view of one slot (for `/stats`).
#[derive(Clone, Debug)]
pub struct ReplicaInfo {
    /// Slot index.
    pub id: usize,
    /// Lifecycle state.
    pub state: ReplicaState,
    /// Bound address once discovered.
    pub addr: Option<String>,
    /// Child PID while one is running.
    pub pid: Option<u32>,
    /// Times this slot's child has been respawned beyond its first spawn.
    pub restarts: u64,
}

struct Slot {
    id: usize,
    /// `None` for static (externally managed) backends.
    child: Option<Child>,
    addr: Option<String>,
    state: ReplicaState,
    /// `spawn_child` attempts so far, failed ones included.
    spawn_attempts: u64,
    recent_respawns: VecDeque<Instant>,
    backoff: Backoff,
    respawn_at: Instant,
    started_at: Instant,
    failed_probes: u32,
    port_file: PathBuf,
    /// Static backend: never spawned, probed, or restarted by us.
    external: bool,
}

impl Slot {
    /// Spawn attempts beyond the first (what `/stats` reports).
    fn restarts(&self) -> u64 {
        self.spawn_attempts.saturating_sub(1)
    }
}

/// The shared replica table and the committed fleet model: the supervisor
/// mutates the table, the proxy reads round-robin routing snapshots from
/// it, and each holds the fleet model while it writes a replica's model.
pub struct Registry {
    slots: Mutex<Vec<Slot>>,
    /// The committed fleet model (`None`: the boot checkpoint). Held, never
    /// waited on, by a fan-out from its ready-set snapshot through commit or
    /// rollback and by the supervisor from an admission push through the
    /// admission. Lock order: this, then `slots`.
    model: Mutex<Option<Vec<u8>>>,
    rr: AtomicUsize,
    rng: Mutex<StdRng>,
    /// Slots escalated to [`ReplicaState::Failed`].
    permanent_failures: AtomicUsize,
    /// Committed blobs installed on a replica before its admission.
    model_catchups: AtomicU64,
}

impl Registry {
    /// A registry of `cfg.replicas` supervised slots (children are spawned
    /// by [`supervise`], not here).
    pub fn supervised(cfg: &SupervisorConfig) -> Registry {
        let slots: Vec<Slot> = (0..cfg.replicas)
            .map(|id| Slot {
                id,
                child: None,
                addr: None,
                state: ReplicaState::Down,
                spawn_attempts: 0,
                recent_respawns: VecDeque::new(),
                backoff: Backoff::new(cfg.restart_backoff_base, cfg.restart_backoff_cap),
                respawn_at: Instant::now(),
                started_at: Instant::now(),
                failed_probes: 0,
                port_file: cfg.port_dir.join(format!("replica-{id}.port")),
                external: false,
            })
            .collect();
        Registry::new(slots, cfg.seed.wrapping_add(0x5EED_BA1A))
    }

    /// A registry over fixed, externally managed backend addresses (no
    /// supervision; used by tests and by fronting already-running daemons).
    pub fn static_backends(addrs: &[String]) -> Registry {
        let slots: Vec<Slot> = addrs
            .iter()
            .enumerate()
            .map(|(id, addr)| Slot {
                id,
                child: None,
                addr: Some(addr.clone()),
                state: ReplicaState::Ready,
                spawn_attempts: 0,
                recent_respawns: VecDeque::new(),
                backoff: Backoff::new(Duration::from_millis(100), Duration::from_secs(2)),
                respawn_at: Instant::now(),
                started_at: Instant::now(),
                failed_probes: 0,
                port_file: PathBuf::new(),
                external: true,
            })
            .collect();
        Registry::new(slots, 0)
    }

    fn new(slots: Vec<Slot>, seed: u64) -> Registry {
        Registry {
            slots: Mutex::new(slots),
            model: Mutex::new(None),
            rr: AtomicUsize::new(0),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            permanent_failures: AtomicUsize::new(0),
            model_catchups: AtomicU64::new(0),
        }
    }

    /// Holds the committed fleet model for its one writer at a time, or
    /// `None` at once while another holder has it (see [`Registry`]).
    pub fn hold_model(&self) -> Option<MutexGuard<'_, Option<Vec<u8>>>> {
        match self.model.try_lock() {
            Ok(model) => Some(model),
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(_)) => panic!("fleet model lock poisoned"),
        }
    }

    /// Committed blobs installed on replicas before their admission.
    pub fn model_catchups(&self) -> u64 {
        self.model_catchups.load(Ordering::Relaxed)
    }

    /// The `Ready` replicas `(id, addr)`, rotated round-robin so
    /// consecutive requests start their attempt sequence on different
    /// replicas.
    pub fn ready_order(&self) -> Vec<(usize, String)> {
        let slots = self.slots.lock().expect("registry lock");
        let mut ready: Vec<(usize, String)> = slots
            .iter()
            .filter(|s| s.state == ReplicaState::Ready)
            .filter_map(|s| s.addr.clone().map(|a| (s.id, a)))
            .collect();
        if !ready.is_empty() {
            let n = self.rr.fetch_add(1, Ordering::Relaxed) % ready.len();
            ready.rotate_left(n);
        }
        ready
    }

    /// Replicas permanently failed so far.
    pub fn permanent_failures(&self) -> usize {
        self.permanent_failures.load(Ordering::SeqCst)
    }

    /// True when every slot is permanently failed (the balancer gives up).
    pub fn all_failed(&self) -> bool {
        let slots = self.slots.lock().expect("registry lock");
        !slots.is_empty() && slots.iter().all(|s| s.state == ReplicaState::Failed)
    }

    /// Point-in-time slot views for `/stats`.
    pub fn snapshot(&self) -> Vec<ReplicaInfo> {
        let slots = self.slots.lock().expect("registry lock");
        slots
            .iter()
            .map(|s| ReplicaInfo {
                id: s.id,
                state: s.state,
                addr: s.addr.clone(),
                pid: s.child.as_ref().map(Child::id),
                restarts: s.restarts(),
            })
            .collect()
    }

    /// Total respawns across all slots (each slot's count beyond its first
    /// spawn).
    pub fn total_restarts(&self) -> u64 {
        let slots = self.slots.lock().expect("registry lock");
        slots.iter().map(Slot::restarts).sum()
    }
}

/// Builds the spawn command for one slot.
fn spawn_child(cfg: &SupervisorConfig, slot: &Slot) -> std::io::Result<Child> {
    let _ = std::fs::remove_file(&slot.port_file);
    Command::new(&cfg.program)
        .args(&cfg.prefix_args)
        .args(["--addr", "127.0.0.1:0", "--port-file"])
        .arg(&slot.port_file)
        .args(&cfg.common_args)
        .args(cfg.per_replica_args.get(slot.id).map(Vec::as_slice).unwrap_or(&[]))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
}

/// One `/readyz` probe. Any transport error counts as not ready.
fn probe_ready(addr: &str, timeout: Duration) -> bool {
    match Client::connect(addr, Some(timeout)) {
        Ok(mut c) => matches!(c.request("GET", "/v1/readyz", b""), Ok(r) if r.status == 200),
        Err(_) => false,
    }
}

/// One fresh-dialed model upload to a replica — the fan-out's and the
/// admission push's (no pooling: uploads are rare and large, and a stale
/// pooled link must not burn the attempt).
pub(crate) fn upload_model(
    addr: &str,
    blob: &[u8],
    connect_timeout: Duration,
    read_timeout: Duration,
) -> Result<Response, String> {
    let mut link =
        Client::dial(addr, connect_timeout, read_timeout).map_err(|e| format!("connect: {e}"))?;
    link.request("POST", "/v1/model", blob).map_err(|e| e.to_string())
}

/// Runs the supervision loop until `shutdown` is set: spawn/respawn
/// children, discover ports, probe readiness, enforce the restart budget.
/// When every replica has permanently failed it sets `shutdown` itself and
/// returns that as the error. On exit every child is stopped — gracefully
/// (`POST /shutdown`) where possible, killed otherwise — and reaped, so no
/// zombies outlive the balancer.
pub fn supervise(
    reg: &Registry,
    cfg: &SupervisorConfig,
    shutdown: &AtomicBool,
) -> Result<(), String> {
    let mut tick = 0u32;
    let mut verdict = Ok(());
    while !shutdown.load(Ordering::SeqCst) {
        run_tick(reg, cfg, tick);
        if reg.all_failed() {
            verdict = Err("every replica permanently failed".to_string());
            shutdown.store(true, Ordering::SeqCst);
            break;
        }
        tick = tick.wrapping_add(1);
        std::thread::sleep(cfg.probe_interval);
    }
    stop_children(reg);
    verdict
}

fn run_tick(reg: &Registry, cfg: &SupervisorConfig, tick: u32) {
    // Phase 1 (lock held, no network): child liveness, respawns due,
    // startup deadlines, port-file discovery. Collect the probe list, with
    // what is left of a starting slot's deadline.
    let mut probes: Vec<(usize, String, ReplicaState, Duration)> = Vec::new();
    {
        let mut slots = reg.slots.lock().expect("registry lock");
        for s in slots.iter_mut() {
            if s.external || s.state == ReplicaState::Failed {
                continue;
            }
            // A dead child moves the slot to Down whatever it was doing.
            if let Some(child) = &mut s.child {
                if let Ok(Some(status)) = child.try_wait() {
                    eprintln!("[balance] replica {} exited ({status}); scheduling restart", s.id);
                    s.child = None;
                    s.addr = None;
                    s.state = ReplicaState::Down;
                    let delay = s.backoff.next_delay(&mut reg.rng.lock().expect("rng lock"));
                    s.respawn_at = Instant::now() + delay;
                }
            }
            match s.state {
                ReplicaState::Down => {
                    if s.child.is_none() && Instant::now() >= s.respawn_at {
                        // Budget check before burning another respawn: every
                        // attempt beyond the first counts, over a sliding
                        // window — a spawn that fails (missing or
                        // non-executable program) is charged like a crash.
                        let now = Instant::now();
                        while s
                            .recent_respawns
                            .front()
                            .is_some_and(|&t| now.duration_since(t) > cfg.restart_window)
                        {
                            s.recent_respawns.pop_front();
                        }
                        if s.recent_respawns.len() >= cfg.restart_budget {
                            eprintln!(
                                "[balance] replica {}: {} restarts within {:?} — giving up \
                                 (permanent failure)",
                                s.id,
                                s.recent_respawns.len(),
                                cfg.restart_window,
                            );
                            s.state = ReplicaState::Failed;
                            reg.permanent_failures.fetch_add(1, Ordering::SeqCst);
                            continue;
                        }
                        if s.spawn_attempts > 0 {
                            s.recent_respawns.push_back(now);
                        }
                        s.spawn_attempts += 1;
                        match spawn_child(cfg, s) {
                            Ok(child) => {
                                s.child = Some(child);
                                s.state = ReplicaState::Starting;
                                s.started_at = now;
                                s.failed_probes = 0;
                            }
                            Err(e) => {
                                eprintln!("[balance] replica {}: spawn failed: {e}", s.id);
                                let delay =
                                    s.backoff.next_delay(&mut reg.rng.lock().expect("rng lock"));
                                s.respawn_at = Instant::now() + delay;
                            }
                        }
                    }
                }
                ReplicaState::Starting => {
                    if s.addr.is_none() {
                        if let Ok(text) = std::fs::read_to_string(&s.port_file) {
                            let addr = text.trim().to_string();
                            if !addr.is_empty() {
                                s.addr = Some(addr);
                            }
                        }
                    }
                    if s.started_at.elapsed() > STARTUP_DEADLINE {
                        eprintln!("[balance] replica {}: startup deadline exceeded; killing", s.id);
                        if let Some(mut child) = s.child.take() {
                            let _ = child.kill();
                            let _ = child.wait();
                        }
                        s.addr = None;
                        s.state = ReplicaState::Down;
                        let delay = s.backoff.next_delay(&mut reg.rng.lock().expect("rng lock"));
                        s.respawn_at = Instant::now() + delay;
                        continue;
                    }
                    if let Some(addr) = &s.addr {
                        let left = STARTUP_DEADLINE.saturating_sub(s.started_at.elapsed());
                        probes.push((s.id, addr.clone(), s.state, left));
                    }
                }
                ReplicaState::Ready => {
                    if tick.is_multiple_of(READY_PROBE_EVERY) {
                        if let Some(addr) = &s.addr {
                            probes.push((s.id, addr.clone(), s.state, Duration::ZERO));
                        }
                    }
                }
                ReplicaState::Failed => {}
            }
        }
    }

    // Phase 2 (no registry lock): network probes, then the admission push —
    // a starting replica that passed serves its boot checkpoint, and takes
    // traffic only once it serves the committed fleet model. The fleet
    // model stays held through phase 3; a fan-out holding it defers
    // admission to a later tick.
    let results: Vec<(usize, String, ReplicaState, Duration, bool)> = probes
        .into_iter()
        .map(|(id, addr, state, left)| {
            let ok = probe_ready(&addr, PROBE_TIMEOUT);
            (id, addr, state, left, ok)
        })
        .collect();
    let admitting = results.iter().any(|r| r.2 == ReplicaState::Starting && r.4);
    let fleet = if admitting { reg.hold_model() } else { None };
    let results: Vec<(usize, ReplicaState, bool)> = results
        .into_iter()
        .map(|(id, addr, state, left, ok)| {
            if state != ReplicaState::Starting || !ok {
                return (id, state, ok);
            }
            let admitted = match fleet.as_deref() {
                // A fan-out holds the fleet model: a later tick.
                None => false,
                // No committed upload: the boot checkpoint is the fleet model.
                Some(None) => true,
                Some(Some(blob)) => {
                    let pushed = upload_model(&addr, blob, left, left).map(|r| r.status);
                    if pushed == Ok(200) {
                        reg.model_catchups.fetch_add(1, Ordering::Relaxed);
                    } else {
                        eprintln!("[balance] replica {id}: fleet model push failed: {pushed:?}");
                    }
                    pushed == Ok(200)
                }
            };
            (id, state, admitted)
        })
        .collect();

    // Phase 3 (registry lock held, after the fleet model): apply outcomes.
    let mut slots = reg.slots.lock().expect("registry lock");
    for (id, was, ok) in results {
        let Some(s) = slots.iter_mut().find(|s| s.id == id) else { continue };
        if s.state != was {
            continue; // state moved under us (e.g. child died mid-probe)
        }
        match (was, ok) {
            (ReplicaState::Starting, true) => {
                eprintln!(
                    "[balance] replica {} ready at {} ({} restart(s) so far)",
                    s.id,
                    s.addr.as_deref().unwrap_or("?"),
                    s.restarts(),
                );
                s.state = ReplicaState::Ready;
                s.failed_probes = 0;
                s.backoff.reset();
            }
            (ReplicaState::Starting, false) => {} // keep waiting (deadline above)
            (ReplicaState::Ready, true) => s.failed_probes = 0,
            (ReplicaState::Ready, false) => {
                s.failed_probes += 1;
                if s.failed_probes >= 3 {
                    eprintln!("[balance] replica {}: failed 3 readiness probes; recycling", s.id);
                    if let Some(mut child) = s.child.take() {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    s.addr = None;
                    s.state = ReplicaState::Down;
                    let delay = s.backoff.next_delay(&mut reg.rng.lock().expect("rng lock"));
                    s.respawn_at = Instant::now() + delay;
                }
            }
            _ => {}
        }
    }
}

/// Stops every supervised child: graceful `POST /shutdown` first, a hard
/// kill for stragglers, and a `wait` either way so children are reaped.
fn stop_children(reg: &Registry) {
    let mut slots = reg.slots.lock().expect("registry lock");
    for s in slots.iter_mut() {
        let Some(mut child) = s.child.take() else { continue };
        if let Some(addr) = &s.addr {
            if let Ok(mut c) = Client::connect(addr, Some(Duration::from_millis(500))) {
                let _ = c.request("POST", "/v1/shutdown", b"");
            }
        }
        let deadline = Instant::now() + Duration::from_secs(3);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
        s.state = ReplicaState::Down;
        s.addr = None;
        let _ = std::fs::remove_file(&s.port_file);
    }
}
