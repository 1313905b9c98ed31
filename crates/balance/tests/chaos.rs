//! The chaos suite: real balancer + real replica processes with
//! deterministic fault injection, asserting the two invariants the whole
//! design exists for —
//!
//! 1. **zero client-visible errors for retryable faults** (crashes and
//!    stalls strike before a response byte, so failover hides them), and
//! 2. **byte-identity**: every `200` the balancer returns is byte-identical
//!    to the offline annotation of the same table, no matter which replica
//!    answered or how many died along the way.
//!
//! Replicas are spawned by self-exec (`doduo-balance replica …`), so the
//! only binary these tests need is the one cargo builds for this package.

use doduo_core::blob_crc;
use doduo_served::bootstrap::{synthetic_world, SyntheticWorld};
use doduo_served::http::Client;
use doduo_served::json::{annotations_response, table_to_json};
use doduo_served::validate::offline_response;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BALANCE_BIN: &str = env!("CARGO_BIN_EXE_doduo-balance");

/// A scratch dir unique to this test process + test name.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("doduo-chaos-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The quick synthetic world, with its bundle checkpointed to disk so the
/// replica processes load the exact same weights the test compares against.
fn world_with_checkpoint(dir: &std::path::Path) -> (SyntheticWorld, PathBuf) {
    let world = synthetic_world(true, 42);
    let ckpt = dir.join("bundle.ckpt");
    world.bundle.save_to(ckpt.to_str().expect("utf8 path")).expect("save checkpoint");
    (world, ckpt)
}

/// Offline reference bytes for one table — the byte-identity target.
fn offline_bytes(world: &SyntheticWorld, idx: usize) -> Vec<u8> {
    let ann = world.annotator().annotate(&world.tables[idx]);
    annotations_response(&[ann], false).into_bytes()
}

struct BalancerProc {
    child: Child,
    addr: String,
}

impl BalancerProc {
    /// Spawns `doduo-balance` with `extra` flags on top of the common fleet
    /// flags, waits for its port file, and waits until `/readyz` is 200.
    fn start(dir: &std::path::Path, ckpt: &std::path::Path, extra: &[&str]) -> BalancerProc {
        let port_file = dir.join("balance.port");
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(BALANCE_BIN);
        cmd.args([
            "--checkpoint",
            ckpt.to_str().expect("utf8"),
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().expect("utf8"),
            "--port-dir",
            dir.to_str().expect("utf8"),
            "--threads",
            "1",
            "--seed",
            "7",
        ])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
        let child = cmd.spawn().expect("spawn doduo-balance");

        // Port file, then readiness (replicas load the checkpoint first).
        let deadline = Instant::now() + Duration::from_secs(120);
        let addr = loop {
            assert!(Instant::now() < deadline, "balancer never wrote its port file");
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                let s = s.trim().to_string();
                if !s.is_empty() {
                    break s;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        loop {
            assert!(Instant::now() < deadline, "balancer never became ready");
            if let Ok(mut c) = Client::connect(&addr, Some(Duration::from_millis(500))) {
                if let Ok(resp) = c.request("GET", "/v1/readyz", b"") {
                    if resp.status == 200 {
                        break;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        BalancerProc { child, addr }
    }

    fn stats(&self) -> String {
        let mut c =
            Client::connect(&self.addr, Some(Duration::from_secs(5))).expect("connect for stats");
        let resp = c.request("GET", "/v1/stats", b"").expect("stats");
        assert_eq!(resp.status, 200);
        String::from_utf8(resp.body).expect("utf8 stats")
    }
}

impl Drop for BalancerProc {
    fn drop(&mut self) {
        // Graceful first: the balancer stops its replica children on the
        // way out; a bare kill would orphan them.
        if let Ok(mut c) = Client::connect(&self.addr, Some(Duration::from_millis(500))) {
            let _ = c.request("POST", "/v1/shutdown", b"");
        }
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn stat(stats: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = &stats[stats.find(&pat).unwrap_or_else(|| panic!("{key} in {stats}")) + pat.len()..];
    rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().expect("number")
}

/// A crashing replica is invisible to clients: crashes strike before any
/// response byte, so every request fails over and every answer stays
/// byte-identical to offline annotation. The supervisor restarts the
/// crashed replica (restart counter moves).
#[test]
fn crash_faults_are_invisible_and_the_replica_is_restarted() {
    let dir = scratch("crash");
    let (world, ckpt) = world_with_checkpoint(&dir);
    let proc = BalancerProc::start(
        &dir,
        &ckpt,
        &["--replicas", "3", "--chaos-replica", "0:crash_after=8,seed=11"],
    );

    let mut client = Client::connect(&proc.addr, Some(Duration::from_secs(30))).expect("connect");
    let n_tables = world.tables.len().min(4);
    for i in 0..40 {
        let idx = i % n_tables;
        let body = table_to_json(&world.tables[idx]);
        let resp = client.request("POST", "/v1/annotate", body.as_bytes()).expect("request");
        assert_eq!(resp.status, 200, "request {i}: retryable faults must be client-invisible");
        assert_eq!(
            resp.body,
            offline_bytes(&world, idx),
            "request {i}: byte-identity must survive failover"
        );
    }

    // The crash actually happened and was healed, not merely avoided.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = proc.stats();
        if stat(&stats, "restarts") >= 1 {
            assert_eq!(stat(&stats, "requests_failed"), 0, "stats: {stats}");
            assert_eq!(stat(&stats, "permanent_failures"), 0, "stats: {stats}");
            break;
        }
        assert!(Instant::now() < deadline, "crashed replica was never restarted: {stats}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// A stalled replica (chaos delay far above the balancer's response
/// timeout) never blocks clients: the first-byte timeout is a
/// before-response fault, so requests fail over to the healthy replica.
#[test]
fn stalled_replica_times_out_and_fails_over() {
    let dir = scratch("delay");
    let (world, ckpt) = world_with_checkpoint(&dir);
    let proc = BalancerProc::start(
        &dir,
        &ckpt,
        &[
            "--replicas",
            "2",
            "--chaos-replica",
            "0:delay_ms=5000,seed=3",
            "--response-timeout-ms",
            "400",
        ],
    );

    let mut client = Client::connect(&proc.addr, Some(Duration::from_secs(30))).expect("connect");
    for i in 0..8 {
        let idx = i % world.tables.len().min(3);
        let body = table_to_json(&world.tables[idx]);
        let t0 = Instant::now();
        let resp = client.request("POST", "/v1/annotate", body.as_bytes()).expect("request");
        assert_eq!(resp.status, 200, "request {i}: a stalled replica must not surface errors");
        assert_eq!(resp.body, offline_bytes(&world, idx), "request {i}: byte-identity");
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "request {i} took {:?}: the 5s stall must never be waited out",
            t0.elapsed()
        );
    }
    let stats = proc.stats();
    assert_eq!(stat(&stats, "requests_failed"), 0, "stats: {stats}");
}

/// A replica that tears connections mid-response produces 502s (never a
/// silent retry — the response started flowing), while requests landing on
/// the healthy replica still come back byte-identical. Both outcomes must
/// occur, and nothing else.
#[test]
fn mid_response_resets_surface_as_502_without_redispatch() {
    let dir = scratch("reset");
    let (world, ckpt) = world_with_checkpoint(&dir);
    let proc = BalancerProc::start(
        &dir,
        &ckpt,
        &["--replicas", "2", "--chaos-replica", "0:reset_prob=1.0,seed=5"],
    );

    let mut torn = 0u32;
    let mut clean = 0u32;
    for i in 0..16 {
        let idx = i % world.tables.len().min(3);
        let body = table_to_json(&world.tables[idx]);
        // The 502 arrives with connection intact, but reconnect per request
        // to keep the schedule independent of keep-alive pooling.
        let mut client =
            Client::connect(&proc.addr, Some(Duration::from_secs(30))).expect("connect");
        let resp = client.request("POST", "/v1/annotate", body.as_bytes()).expect("request");
        match resp.status {
            200 => {
                assert_eq!(resp.body, offline_bytes(&world, idx), "request {i}: byte-identity");
                clean += 1;
            }
            502 => torn += 1,
            other => panic!("request {i}: unexpected status {other}"),
        }
    }
    assert!(torn >= 1, "the resetting replica was never hit");
    assert!(clean >= 1, "the healthy replica was never hit");
    let stats = proc.stats();
    assert_eq!(stat(&stats, "mid_response_aborts"), u64::from(torn), "stats: {stats}");
}

/// The swap-under-crash schedule: a fleet-wide model upload lands while a
/// chaos replica is crash-looping. The invariants:
///
/// * every `200` is byte-identical to **exactly one** of the two offline
///   references (old model XOR new model — never a torn mix), and its
///   `x-model-version` CRC names the model that produced those bytes;
/// * a committed swap converges: restarted replicas boot the old
///   checkpoint, and the supervisor admits them only once it has installed
///   the fleet model on them, so fresh responses settle on the new bytes.
///
/// A chaos crash can strike mid-upload; that surfaces as an all-or-nothing
/// `502` rollback, after which the fleet is all-old and the upload is
/// simply retried.
#[test]
fn model_swap_under_crash_chaos_is_atomic_and_converges() {
    let dir = scratch("swap");
    let (world, ckpt) = world_with_checkpoint(&dir);
    let new_world = synthetic_world(true, 99);
    let next_ckpt = dir.join("next.ckpt");
    new_world.bundle.save_to(next_ckpt.to_str().expect("utf8")).expect("save next checkpoint");
    let new_blob = std::fs::read(&next_ckpt).expect("read next blob");
    let old_blob = std::fs::read(&ckpt).expect("read boot blob");
    let old_crc = format!("-{:08x}", blob_crc(&old_blob).expect("boot blob crc"));
    let new_crc = format!("-{:08x}", blob_crc(&new_blob).expect("next blob crc"));

    let proc = BalancerProc::start(
        &dir,
        &ckpt,
        &["--replicas", "3", "--chaos-replica", "0:crash_after=6,seed=11"],
    );

    // Offline references for the same request bodies under both models.
    let n_tables = world.tables.len().min(3);
    let bodies: Vec<String> = (0..n_tables).map(|i| table_to_json(&world.tables[i])).collect();
    let old_refs: Vec<Vec<u8>> = (0..n_tables).map(|i| offline_bytes(&world, i)).collect();
    let new_refs: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| offline_response(&new_world.bundle, b).expect("offline").into_bytes())
        .collect();

    // Warm traffic on the boot model: old bytes, old version CRC.
    let mut client = Client::connect(&proc.addr, Some(Duration::from_secs(30))).expect("connect");
    for i in 0..12 {
        let idx = i % n_tables;
        let resp = client.request("POST", "/v1/annotate", bodies[idx].as_bytes()).expect("request");
        assert_eq!(resp.status, 200, "request {i}: crashes stay client-invisible");
        assert_eq!(resp.body, old_refs[idx], "request {i}: pre-swap byte-identity");
        let v = resp.model_version.as_deref().expect("pre-swap version header");
        assert!(v.ends_with(&old_crc), "request {i}: version {v} is not the boot model");
    }

    // Upload the new model fleet-wide. A crash landing mid-upload rolls the
    // fleet back (502, all-old) — retry until the swap commits.
    let deadline = Instant::now() + Duration::from_secs(90);
    loop {
        assert!(Instant::now() < deadline, "fleet swap never committed under chaos");
        let mut c = Client::connect(&proc.addr, Some(Duration::from_secs(30))).expect("connect");
        let resp = c.request("POST", "/v1/model", &new_blob).expect("model upload");
        let body = String::from_utf8_lossy(&resp.body).to_string();
        if resp.status == 200 {
            assert!(body.contains("\"status\":\"swapped\""), "commit body: {body}");
            assert!(body.contains(&new_crc), "commit must report the new version: {body}");
            break;
        }
        assert_eq!(resp.status, 502, "swap must commit or roll back, got: {body}");
        assert!(body.contains("swap_rejected"), "rollback body: {body}");
        std::thread::sleep(Duration::from_millis(500));
    }

    // Post-commit: every response is old XOR new (answers already in
    // flight at the commit finish on old), and the fleet settles on new.
    let mut consecutive_new = 0usize;
    let mut i = 0usize;
    while consecutive_new < 12 {
        assert!(Instant::now() < deadline, "fleet never converged on the new model");
        let idx = i % n_tables;
        i += 1;
        let resp = client.request("POST", "/v1/annotate", bodies[idx].as_bytes()).expect("request");
        assert_eq!(resp.status, 200, "request {i}: crashes stay client-invisible");
        let v = resp.model_version.as_deref().expect("post-swap version header").to_string();
        if resp.body == new_refs[idx] {
            assert!(v.ends_with(&new_crc), "new bytes must carry the new version, got {v}");
            consecutive_new += 1;
        } else {
            assert_eq!(
                resp.body, old_refs[idx],
                "request {i}: torn response matches neither model"
            );
            assert!(v.ends_with(&old_crc), "old bytes must carry the boot version, got {v}");
            consecutive_new = 0;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let stats = proc.stats();
    assert!(stat(&stats, "model_swaps") >= 1, "stats: {stats}");
    assert_eq!(stat(&stats, "requests_failed"), 0, "stats: {stats}");
}

/// A crash-looping replica exhausts its restart budget and is escalated to
/// permanent failure; the survivor keeps answering every request.
#[test]
fn crash_loop_exhausts_the_restart_budget_and_is_escalated() {
    let dir = scratch("budget");
    let (world, ckpt) = world_with_checkpoint(&dir);
    let proc = BalancerProc::start(
        &dir,
        &ckpt,
        &[
            "--replicas",
            "2",
            "--chaos-replica",
            "0:crash_after=1,seed=9",
            "--restart-budget",
            "2",
            "--restart-window-secs",
            "300",
        ],
    );

    // Keep traffic flowing: each time the crash-looping replica comes back
    // it dies on its next request, until the budget trips.
    let mut client = Client::connect(&proc.addr, Some(Duration::from_secs(30))).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(90);
    let mut sent = 0u32;
    loop {
        let idx = (sent as usize) % world.tables.len().min(3);
        let body = table_to_json(&world.tables[idx]);
        let resp = client.request("POST", "/v1/annotate", body.as_bytes()).expect("request");
        assert_eq!(resp.status, 200, "request {sent}: crashes stay client-invisible");
        assert_eq!(resp.body, offline_bytes(&world, idx), "request {sent}: byte-identity");
        sent += 1;
        let stats = proc.stats();
        if stat(&stats, "permanent_failures") >= 1 {
            assert_eq!(stat(&stats, "permanent_failures"), 1, "stats: {stats}");
            assert!(stats.contains("\"state\":\"failed\""), "stats: {stats}");
            break;
        }
        assert!(Instant::now() < deadline, "budget never tripped after {sent} requests: {stats}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The fleet is degraded but alive: the survivor answers alone.
    for i in 0..5 {
        let idx = i % world.tables.len().min(3);
        let body = table_to_json(&world.tables[idx]);
        let resp = client.request("POST", "/v1/annotate", body.as_bytes()).expect("request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, offline_bytes(&world, idx));
    }
}

/// A replica that restarts after a committed swap takes traffic only once
/// it serves the committed model: it boots the old checkpoint, and the
/// supervisor installs the fleet model on it before admitting it. So with a
/// replica crash-looping through the whole test (a budget it cannot
/// exhaust), every answer after the commit's `200` is the new model's,
/// across five restarts.
#[test]
fn restarted_replicas_answer_with_the_committed_model_only() {
    let dir = scratch("admit");
    let (world, ckpt) = world_with_checkpoint(&dir);
    let new_world = synthetic_world(true, 99);
    let new_blob = new_world.bundle.save();
    let new_crc = format!("-{:08x}", blob_crc(&new_blob).expect("next blob crc"));
    let proc = BalancerProc::start(
        &dir,
        &ckpt,
        &[
            "--replicas",
            "2",
            "--chaos-replica",
            "0:crash_after=3,seed=11",
            "--restart-budget",
            "1000",
            "--restart-window-secs",
            "300",
        ],
    );
    let n_tables = world.tables.len().min(3);
    let bodies: Vec<String> = (0..n_tables).map(|i| table_to_json(&world.tables[i])).collect();
    let new_refs: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| offline_response(&new_world.bundle, b).expect("offline").into_bytes())
        .collect();

    // Commit the new model (a replica restarting mid-upload rolls it back
    // or holds the fleet model; either way the upload is retried).
    let deadline = Instant::now() + Duration::from_secs(90);
    loop {
        assert!(Instant::now() < deadline, "fleet swap never committed");
        let mut c = Client::connect(&proc.addr, Some(Duration::from_secs(30))).expect("connect");
        let resp = c.request("POST", "/v1/model", &new_blob).expect("model upload");
        if resp.status == 200 {
            break;
        }
        let body = String::from_utf8_lossy(&resp.body).to_string();
        assert!(matches!(resp.status, 502 | 503), "swap must commit or be retried: {body}");
        std::thread::sleep(Duration::from_millis(100));
    }
    let restarts_at_commit = stat(&proc.stats(), "restarts");

    // At least 60 requests, and on until the crash-looping replica has been
    // restarted five times since the commit (and re-admitted at least four).
    let mut client = Client::connect(&proc.addr, Some(Duration::from_secs(30))).expect("connect");
    let mut sent = 0usize;
    loop {
        let idx = sent % n_tables;
        let resp = client.request("POST", "/v1/annotate", bodies[idx].as_bytes()).expect("request");
        assert_eq!(resp.status, 200, "request {sent}: crashes stay client-invisible");
        let v = resp.model_version.as_deref().expect("version header").to_string();
        assert_eq!(resp.body, new_refs[idx], "request {sent}: not the committed model ({v})");
        assert!(v.ends_with(&new_crc), "request {sent}: version {v} is not the committed model");
        sent += 1;
        if sent >= 60 && sent.is_multiple_of(10) {
            let stats = proc.stats();
            if stat(&stats, "restarts") >= restarts_at_commit + 5 {
                assert!(stat(&stats, "model_catchups") >= 4, "stats: {stats}");
                assert_eq!(stat(&stats, "permanent_failures"), 0, "stats: {stats}");
                break;
            }
            assert!(Instant::now() < deadline, "too few restarts after {sent} requests: {stats}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
