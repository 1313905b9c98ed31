//! `serve_load` fails — promptly, and without an artifact — when its fleet
//! cannot come up. It used to hang: the supervisor retried a missing binary
//! forever and the bench's readiness assert unwound into a thread scope
//! whose balancer nobody stopped.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn a_missing_daemon_binary_fails_fast_and_writes_nothing() {
    let scratch = std::env::temp_dir().join(format!("serve_load-it-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let t0 = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_serve_load"))
        .args(["--scale", "quick"])
        .env("DODUO_SERVED_BIN", "/nonexistent/doduo-served")
        .current_dir(&scratch)
        .output()
        .expect("run serve_load");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a fleet that cannot start is a failure: {stderr}");
    assert!(t0.elapsed() < Duration::from_secs(30), "took {:?}: {stderr}", t0.elapsed());
    assert!(stderr.contains("permanently failed"), "{stderr}");
    assert!(!scratch.join("BENCH_serve.json").exists(), "no artifact from a failed run");
    let _ = std::fs::remove_dir_all(&scratch);
}
