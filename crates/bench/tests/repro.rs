//! Integration tests for the `repro` master binary.
//!
//! The cheap tests exercise the CLI surface (help, stage validation). The
//! `#[ignore]`d test runs a real `repro --scale quick --only serve` from a
//! scratch working directory — train → checkpoint → daemon → Table-3
//! checks — and is executed by CI's repro job (where the artifact cache is
//! already warm) via `cargo test --release -- --ignored`.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn help_prints_stages_and_shared_flags() {
    let out = repro().arg("--help").output().expect("run repro --help");
    assert!(out.status.success(), "--help exits 0");
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["tables", "train", "serve", "bench", "--scale quick|full", "--bless"] {
        assert!(text.contains(needle), "help must mention {needle}: {text}");
    }
    assert!(text.contains("stages: tables, train, serve, bench\n"), "four stages: {text}");
}

#[test]
fn unknown_stage_is_rejected_with_the_valid_list() {
    // `check` was a stage until the bench bins validated what they write.
    for bad in ["deploy", "check"] {
        let out = repro().args(["--only", bad]).output().expect("run repro");
        assert_eq!(out.status.code(), Some(2), "bad stage exits 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(bad), "error names the bad stage: {err}");
        assert!(err.contains("serve"), "error lists valid stages: {err}");
    }
}

#[test]
fn bad_shared_flag_is_rejected() {
    let out = repro().args(["--scale", "medium"]).output().expect("run repro");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--scale"), "{err}");
}

/// The end-to-end gate: train a quick-scale checkpoint, serve it, and pass
/// the byte-identity + Table-3 checks — from a scratch working directory,
/// sharing only the artifact cache (via CARGO_TARGET_DIR). Expensive
/// (minutes cold, ~1 min warm), so `#[ignore]`d; CI runs it explicitly.
#[test]
#[ignore]
fn quick_serve_stage_passes_from_a_clean_tree() {
    // target/ of this build: CARGO_BIN_EXE_repro is target/<profile>/repro.
    let target_dir: PathBuf = PathBuf::from(env!("CARGO_BIN_EXE_repro"))
        .parent()
        .and_then(|p| p.parent())
        .expect("target dir")
        .to_path_buf();
    let scratch = std::env::temp_dir().join(format!("repro-it-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    let out = repro()
        .args(["--scale", "quick", "--only", "serve"])
        .current_dir(&scratch)
        .env("CARGO_TARGET_DIR", &target_dir)
        .output()
        .expect("run repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "repro --only serve must pass from a clean tree\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("byte-identical"), "serve stage ran the identity gate: {stdout}");
    assert!(!stdout.contains("[FAIL]"), "no failing checks: {stdout}");
    assert!(
        scratch.join("repro_out").join("doduo_quick.dckpt").exists(),
        "train stage wrote the checkpoint"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}
