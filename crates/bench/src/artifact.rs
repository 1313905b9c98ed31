//! Bench-artifact schema validation (the library behind `report --check`).
//!
//! The committed `BENCH_*.json` files are the repo's performance evidence;
//! CI regenerates them on every push and downstream tooling (and the
//! ROADMAP) reads them. This module keeps them honest: every file must
//! match the expected schema for its `"bench"` kind (`throughput`, `gemm`,
//! `serve`) **and** carry a `host` metadata block (core count, target
//! features, commit, scale — see [`crate::stages::HostMeta`]) so a curve
//! measured on a 1-core container can never masquerade as a multi-core
//! run. JSON parsing reuses the daemon's hand-rolled parser — no new deps.

use doduo_served::json::Json;
use std::path::Path;

/// Validates one artifact file, returning a one-line headline on success
/// or the list of schema violations.
pub fn check_bench_file(path: &Path) -> Result<String, Vec<String>> {
    let text = std::fs::read_to_string(path).map_err(|e| vec![format!("unreadable: {e}")])?;
    check_bench_text(&text)
}

/// Validates one artifact's JSON text (see [`check_bench_file`]).
pub fn check_bench_text(text: &str) -> Result<String, Vec<String>> {
    let v = Json::parse(text).map_err(|e| vec![format!("not valid JSON: {e}")])?;
    let mut c = Checker::default();
    c.str_in(&v, "scale", &["quick", "full"]);
    c.num(&v, "seed");
    check_host(&v, &mut c);
    let kind = match v.get("bench").and_then(Json::as_str) {
        Some(k) => k.to_string(),
        None => {
            c.errs.push("missing string field \"bench\"".into());
            return Err(c.errs);
        }
    };
    let headline = match kind.as_str() {
        "throughput" => check_throughput(&v, &mut c),
        "gemm" => check_gemm(&v, &mut c),
        "serve" => check_serve(&v, &mut c),
        other => {
            c.errs.push(format!("unknown bench kind {other:?}"));
            String::new()
        }
    };
    if c.errs.is_empty() {
        Ok(headline)
    } else {
        Err(c.errs)
    }
}

/// The required host-metadata block: without it a committed artifact's
/// numbers are unattributable (the long-standing "checkout carries 1-core
/// numbers while CI uploads 4-vCPU artifacts" trap).
fn check_host(v: &Json, c: &mut Checker) {
    let Some(host) = v.get("host") else {
        c.errs.push(
            "missing object field \"host\" (cores/arch/target_features/commit/scale); \
             regenerate this artifact with the repro harness"
                .into(),
        );
        return;
    };
    let cores = c.num(host, "cores");
    if c.errs.is_empty() && cores < 1.0 {
        c.errs.push(format!("host.cores is {cores}, expected >= 1"));
    }
    for k in ["arch", "target_features", "commit"] {
        c.str_any(host, k);
    }
    c.str_in(host, "scale", &["quick", "full"]);
    // The host block's scale must agree with the artifact's top-level one.
    let (top, inner) =
        (v.get("scale").and_then(Json::as_str), host.get("scale").and_then(Json::as_str));
    if let (Some(t), Some(i)) = (top, inner) {
        if t != i {
            c.errs.push(format!("host.scale {i:?} disagrees with top-level scale {t:?}"));
        }
    }
}

#[derive(Default)]
struct Checker {
    errs: Vec<String>,
}

impl Checker {
    fn num(&mut self, v: &Json, key: &str) -> f64 {
        match v.get(key).and_then(Json::as_f64) {
            Some(n) if n.is_finite() => n,
            _ => {
                self.errs.push(format!("missing/non-finite number field {key:?}"));
                0.0
            }
        }
    }

    fn str_in(&mut self, v: &Json, key: &str, allowed: &[&str]) {
        match v.get(key).and_then(Json::as_str) {
            Some(s) if allowed.contains(&s) => {}
            Some(s) => self.errs.push(format!("{key:?} is {s:?}, expected one of {allowed:?}")),
            None => self.errs.push(format!("missing string field {key:?}")),
        }
    }

    fn str_any(&mut self, v: &Json, key: &str) {
        if v.get(key).and_then(Json::as_str).is_none() {
            self.errs.push(format!("missing string field {key:?}"));
        }
    }

    fn arr<'a>(&mut self, v: &'a Json, key: &str) -> &'a [Json] {
        match v.get(key).and_then(Json::as_array) {
            Some(a) if !a.is_empty() => a,
            Some(_) => {
                self.errs.push(format!("array field {key:?} must not be empty"));
                &[]
            }
            None => {
                self.errs.push(format!("missing array field {key:?}"));
                &[]
            }
        }
    }
}

fn check_throughput(v: &Json, c: &mut Checker) -> String {
    c.num(v, "corpus_tables");
    let threads = c.num(v, "max_threads");
    let results = c.arr(v, "results").to_vec();
    let mut best = 0.0f64;
    let mut has_sequential = false;
    for (i, r) in results.iter().enumerate() {
        c.str_in(r, "mode", &["sequential", "batched", "batched_gemm_stripes", "batched_int8"]);
        for k in ["batch_size", "threads", "tables", "elapsed_ms", "tables_per_sec"] {
            c.num(r, k);
        }
        c.num(r, "cache_hit_rate");
        if r.get("mode").and_then(Json::as_str) == Some("sequential") {
            has_sequential = true;
        }
        best = best.max(r.get("tables_per_sec").and_then(Json::as_f64).unwrap_or(0.0));
        if c.errs.len() > 16 {
            c.errs.push(format!("... giving up at results[{i}]"));
            break;
        }
    }
    if !has_sequential {
        c.errs.push("no \"sequential\" baseline cell in results".into());
    }
    for t in c.arr(v, "thread_scaling").to_vec() {
        c.num(&t, "threads");
        c.num(&t, "best_tables_per_sec");
    }
    match v.get("speedup") {
        Some(s) => {
            c.num(s, "value");
            for side in ["numerator", "denominator"] {
                match s.get(side) {
                    Some(side_v) => {
                        c.str_any(side_v, "mode");
                        c.num(side_v, "batch_size");
                        c.num(side_v, "threads");
                    }
                    None => c.errs.push(format!("speedup is missing {side:?}")),
                }
            }
        }
        None => c.errs.push("missing object field \"speedup\"".into()),
    }
    // The int8 engine comparison is newer than the speedup block; require
    // only its value when the object is present so older artifacts still
    // report a single clear "missing" error.
    match v.get("int8_vs_f32") {
        Some(s) => {
            c.num(s, "value");
        }
        None => c.errs.push("missing object field \"int8_vs_f32\"".into()),
    }
    format!("{} cells, best {best:.0} tables/sec, {threads:.0} threads", results.len())
}

fn check_gemm(v: &Json, c: &mut Checker) -> String {
    c.num(v, "max_threads");
    c.arr(v, "thread_grid");
    let shapes = c.arr(v, "shapes").to_vec();
    for s in &shapes {
        c.str_any(s, "label");
        c.str_in(s, "variant", &["nn", "nt", "tn"]);
        for k in ["m", "k", "n", "naive_gflops", "speedup_blocked_1t_vs_naive"] {
            c.num(s, k);
        }
        for b in c.arr(s, "blocked").to_vec() {
            c.num(&b, "threads");
            c.num(&b, "gflops");
        }
        // Forward (`nn`) shapes carry the int8 cell; its speedup must ride
        // along with it.
        if s.get("int8_gops_1t").is_some() {
            c.num(s, "int8_gops_1t");
            c.num(s, "speedup_int8_1t_vs_blocked_1t");
        }
        if c.errs.len() > 16 {
            c.errs.push("... giving up".into());
            break;
        }
    }
    let min = c.num(v, "min_speedup_blocked_1t_vs_naive_mini_shapes");
    let int8 = c.num(v, "max_speedup_int8_1t_vs_blocked_1t_mini_shapes");
    format!(
        "{} shapes, min mini-shape speedup {min:.2}x, best mini-shape int8 speedup {int8:.2}x",
        shapes.len()
    )
}

fn check_serve(v: &Json, c: &mut Checker) -> String {
    c.num(v, "corpus_tables");
    c.num(v, "max_threads");
    let results = c.arr(v, "results").to_vec();
    let mut best = 0.0f64;
    for r in &results {
        c.str_in(r, "topology", &["epoll", "replicated"]);
        c.str_in(r, "mode", &["request", "stream", "idle_fleet", "chaos"]);
        c.str_in(r, "policy", &["eager", "coalesce"]);
        for k in [
            "workers",
            "max_delay_ms",
            "replicas",
            "clients",
            "requests",
            "connects",
            "sheds",
            "errors",
            "restarts",
            "availability",
            "conn_reuse_rate",
            "secs",
            "tables_per_sec",
        ] {
            c.num(r, k);
        }
        let avail = r.get("availability").and_then(Json::as_f64).unwrap_or(-1.0);
        if !(0.0..=1.0).contains(&avail) {
            c.errs.push(format!("availability {avail} outside [0, 1]"));
        }
        match r.get("latency_ms") {
            Some(l) => {
                for k in ["mean", "p50", "p99", "max"] {
                    c.num(l, k);
                }
                let (p50, p99) = (
                    l.get("p50").and_then(Json::as_f64).unwrap_or(0.0),
                    l.get("p99").and_then(Json::as_f64).unwrap_or(0.0),
                );
                if p99 + 1e-9 < p50 {
                    c.errs.push(format!("latency p99 {p99} < p50 {p50}"));
                }
            }
            None => c.errs.push("cell is missing \"latency_ms\"".into()),
        }
        best = best.max(r.get("tables_per_sec").and_then(Json::as_f64).unwrap_or(0.0));
        if c.errs.len() > 16 {
            c.errs.push("... giving up".into());
            break;
        }
    }
    format!("{} cells, best {best:.0} tables/sec", results.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::HostMeta;
    use crate::Scale;

    /// A minimal valid gemm artifact, with or without the host block.
    fn gemm_json(host: Option<&str>) -> String {
        let host_line = host.map(|h| format!("  \"host\": {h},\n")).unwrap_or_default();
        format!(
            "{{\n  \"bench\": \"gemm\",\n  \"scale\": \"quick\",\n  \"seed\": 42,\n{host_line}\
             \"max_threads\": 1,\n  \"thread_grid\": [1],\n  \"shapes\": [\n    \
             {{\"label\": \"s\", \"variant\": \"nn\", \"m\": 4, \"k\": 4, \"n\": 4, \
             \"naive_gflops\": 1.0, \"blocked\": [{{\"threads\": 1, \"gflops\": 2.0}}], \
             \"speedup_blocked_1t_vs_naive\": 2.0, \"int8_gops_1t\": 5.0, \
             \"speedup_int8_1t_vs_blocked_1t\": 2.5}}\n  ],\n  \
             \"min_speedup_blocked_1t_vs_naive_mini_shapes\": 2.0,\n  \
             \"max_speedup_int8_1t_vs_blocked_1t_mini_shapes\": 2.5\n}}\n"
        )
    }

    #[test]
    fn artifact_with_host_block_passes() {
        let host = HostMeta::detect(Scale::Quick).to_json();
        let text = gemm_json(Some(&host));
        let headline = check_bench_text(&text).expect("valid artifact passes");
        assert!(headline.contains("1 shapes"));
    }

    #[test]
    fn artifact_missing_host_block_is_rejected() {
        let errs = check_bench_text(&gemm_json(None)).expect_err("missing host must fail");
        assert!(errs.iter().any(|e| e.contains("\"host\"")), "names the host block: {errs:?}");
    }

    #[test]
    fn host_block_missing_fields_is_rejected() {
        let errs = check_bench_text(&gemm_json(Some("{\"cores\": 4}")))
            .expect_err("incomplete host must fail");
        assert!(errs.iter().any(|e| e.contains("target_features")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("commit")), "{errs:?}");
    }

    #[test]
    fn host_scale_must_agree_with_top_level() {
        let host = "{\"cores\": 1, \"arch\": \"x86_64\", \"target_features\": \"avx2\", \
                    \"commit\": \"abc\", \"scale\": \"full\"}";
        let errs = check_bench_text(&gemm_json(Some(host))).expect_err("scale mismatch fails");
        assert!(errs.iter().any(|e| e.contains("disagrees")), "{errs:?}");
    }

    #[test]
    fn unknown_bench_kind_is_rejected() {
        let host = HostMeta::detect(Scale::Quick).to_json();
        let text = format!(
            "{{\"bench\": \"mystery\", \"scale\": \"quick\", \"seed\": 1, \"host\": {host}}}"
        );
        let errs = check_bench_text(&text).expect_err("unknown kind fails");
        assert!(errs.iter().any(|e| e.contains("mystery")), "{errs:?}");
    }

    /// A minimal valid serve artifact with one cell of the given topology,
    /// mode, and availability.
    fn serve_json(topology: &str, mode: &str, availability: f64) -> String {
        let host = HostMeta::detect(Scale::Quick).to_json();
        format!(
            "{{\n  \"bench\": \"serve\",\n  \"scale\": \"quick\",\n  \"seed\": 42,\n  \
             \"host\": {host},\n  \"corpus_tables\": 8,\n  \"max_threads\": 1,\n  \
             \"results\": [\n    {{\"topology\": \"{topology}\", \"mode\": \"{mode}\", \
             \"workers\": 2, \"policy\": \"eager\", \"max_delay_ms\": 0, \"replicas\": 3, \
             \"clients\": 4, \"requests\": 100, \"connects\": 4, \"sheds\": 1, \
             \"errors\": 0, \"restarts\": 1, \"availability\": {availability}, \
             \"conn_reuse_rate\": 0.96, \"secs\": 1.0, \"tables_per_sec\": 100.0, \
             \"latency_ms\": {{\"mean\": 1.0, \"p50\": 1.0, \"p99\": 2.0, \"max\": 3.0}}}}\n  \
             ]\n}}\n"
        )
    }

    #[test]
    fn serve_artifact_with_replicated_chaos_cell_passes() {
        let headline =
            check_bench_text(&serve_json("replicated", "chaos", 1.0)).expect("valid serve passes");
        assert!(headline.contains("1 cells"), "{headline}");
    }

    #[test]
    fn serve_cell_of_a_deleted_topology_is_rejected() {
        let errs = check_bench_text(&serve_json("pool", "request", 1.0))
            .expect_err("only epoll and replicated cells exist");
        assert!(errs.iter().any(|e| e.contains("topology")), "{errs:?}");
    }

    #[test]
    fn serve_cell_missing_fault_fields_is_rejected() {
        let text = serve_json("replicated", "request", 1.0)
            .replace("\"sheds\": 1, ", "")
            .replace("\"restarts\": 1, ", "");
        let errs = check_bench_text(&text).expect_err("missing fields must fail");
        assert!(errs.iter().any(|e| e.contains("sheds")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("restarts")), "{errs:?}");
    }

    #[test]
    fn serve_availability_outside_unit_interval_is_rejected() {
        let errs =
            check_bench_text(&serve_json("replicated", "chaos", 1.5)).expect_err("1.5 must fail");
        assert!(errs.iter().any(|e| e.contains("outside [0, 1]")), "{errs:?}");
    }
}
