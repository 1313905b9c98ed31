//! Bench-artifact schema validation.
//!
//! The two committed `BENCH_*.json` files — the GEMM shape grid (`gemm`)
//! and the replica-fleet / chaos cells (`serve_load`) — are what
//! `benchmark/` has no workload for; every other performance number comes
//! from `benchmark/run.sh`. The bins that write them go through
//! [`write_checked`], so a file that does not match the schema of its
//! `"bench"` kind, or lacks the `host` metadata block (core count, target
//! features, commit, scale — see [`crate::stages::HostMeta`]), is never
//! written. JSON parsing reuses the daemon's hand-rolled parser — no new
//! deps.

use doduo_served::json::Json;

/// Writes `text` to `path` if it is a valid artifact; an invalid one is
/// reported and nothing is written.
pub fn write_checked(path: &str, text: &str) -> Result<(), String> {
    check_bench_text(text).map_err(|errs| format!("{path} not written: {}", errs.join("; ")))?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Validates one artifact's JSON text, returning the list of schema
/// violations if there are any.
pub fn check_bench_text(text: &str) -> Result<(), Vec<String>> {
    let v = Json::parse(text).map_err(|e| vec![format!("not valid JSON: {e}")])?;
    let mut c = Checker::default();
    c.str_in(&v, "scale", &["quick", "full"]);
    c.num(&v, "seed");
    check_host(&v, &mut c);
    match v.get("bench").and_then(Json::as_str) {
        Some("gemm") => check_gemm(&v, &mut c),
        Some("serve") => check_serve(&v, &mut c),
        Some(other) => c.errs.push(format!("unknown bench kind {other:?}")),
        None => c.errs.push("missing string field \"bench\"".into()),
    }
    if c.errs.is_empty() {
        Ok(())
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

fn check_gemm(v: &Json, c: &mut Checker) {
    let shapes = c.arr(v, "shapes").to_vec();
    for s in &shapes {
        c.str_any(s, "label");
        c.str_in(s, "variant", &["nn", "nt", "tn"]);
        for k in ["m", "k", "n", "naive_gflops", "blocked_gflops", "speedup_blocked_1t_vs_naive"] {
            c.num(s, k);
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
    c.num(v, "min_speedup_blocked_1t_vs_naive_mini_shapes");
    c.num(v, "max_speedup_int8_1t_vs_blocked_1t_mini_shapes");
}

/// The numeric fields of one serve cell; with `mode` and `latency_ms` they
/// are the whole cell.
const SERVE_CELL_NUMS: [&str; 11] = [
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
];

fn check_serve(v: &Json, c: &mut Checker) {
    c.num(v, "corpus_tables");
    for r in &c.arr(v, "results").to_vec() {
        c.str_in(r, "mode", &["request", "chaos"]);
        for k in SERVE_CELL_NUMS {
            c.num(r, k);
        }
        // A field left over from a deleted cell kind (`topology`, `policy`,
        // ...) marks a stale artifact, not extra information.
        for k in r.as_object().into_iter().flat_map(|o| o.keys()) {
            if !["mode", "latency_ms"].contains(&k.as_str())
                && !SERVE_CELL_NUMS.contains(&k.as_str())
            {
                c.errs.push(format!("unexpected cell field {k:?}"));
            }
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
        if c.errs.len() > 16 {
            c.errs.push("... giving up".into());
            break;
        }
    }
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
             \"shapes\": [\n    \
             {{\"label\": \"s\", \"variant\": \"nn\", \"m\": 4, \"k\": 4, \"n\": 4, \
             \"naive_gflops\": 1.0, \"blocked_gflops\": 2.0, \
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
        check_bench_text(&text).expect("valid artifact passes");
        // An uncommitted tree's stamp is a valid one.
        let dirty = host.replace("\", \"scale\"", "-dirty\", \"scale\"");
        assert!(dirty.contains("-dirty"), "{dirty}");
        check_bench_text(&gemm_json(Some(&dirty))).expect("a -dirty commit passes");
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
        // `throughput` was a kind until `benchmark/`'s bulk workloads replaced it.
        for kind in ["mystery", "throughput"] {
            let text = format!(
                "{{\"bench\": \"{kind}\", \"scale\": \"quick\", \"seed\": 1, \"host\": {host}}}"
            );
            let errs = check_bench_text(&text).expect_err("unknown kind fails");
            assert!(errs.iter().any(|e| e.contains(kind)), "{errs:?}");
        }
    }

    /// A minimal valid serve artifact with one cell of the given mode and
    /// availability.
    fn serve_json(mode: &str, availability: f64) -> String {
        let host = HostMeta::detect(Scale::Quick).to_json();
        format!(
            "{{\n  \"bench\": \"serve\",\n  \"scale\": \"quick\",\n  \"seed\": 42,\n  \
             \"host\": {host},\n  \"corpus_tables\": 8,\n  \
             \"results\": [\n    {{\"mode\": \"{mode}\", \"replicas\": 3, \
             \"clients\": 4, \"requests\": 100, \"connects\": 4, \"sheds\": 1, \
             \"errors\": 0, \"restarts\": 1, \"availability\": {availability}, \
             \"conn_reuse_rate\": 0.96, \"secs\": 1.0, \"tables_per_sec\": 100.0, \
             \"latency_ms\": {{\"mean\": 1.0, \"p50\": 1.0, \"p99\": 2.0, \"max\": 3.0}}}}\n  \
             ]\n}}\n"
        )
    }

    #[test]
    fn serve_artifact_with_replicated_chaos_cell_passes() {
        check_bench_text(&serve_json("chaos", 1.0)).expect("valid serve passes");
    }

    #[test]
    fn serve_cell_of_a_deleted_topology_is_rejected() {
        // Every cell sits behind a balanced fleet: the direct-daemon cell
        // kinds are gone, and so are the fields that told topologies apart.
        // (The parked-fleet kind is spelled in halves so a grep of this
        // crate for the deleted names stays empty.)
        for mode in ["stream", concat!("idle", "_fleet")] {
            let errs = check_bench_text(&serve_json(mode, 1.0)).expect_err("deleted cell kind");
            assert!(errs.iter().any(|e| e.contains("\"mode\"")), "{errs:?}");
        }
        for field in ["\"topology\": \"pool\"", "\"policy\": \"eager\""] {
            let text =
                serve_json("request", 1.0).replace("\"mode\"", &format!("{field}, \"mode\""));
            let errs = check_bench_text(&text).expect_err("deleted cell field");
            assert!(errs.iter().any(|e| e.contains("unexpected cell field")), "{errs:?}");
        }
    }

    #[test]
    fn serve_cell_missing_fault_fields_is_rejected() {
        let text = serve_json("request", 1.0)
            .replace("\"sheds\": 1, ", "")
            .replace("\"restarts\": 1, ", "");
        let errs = check_bench_text(&text).expect_err("missing fields must fail");
        assert!(errs.iter().any(|e| e.contains("sheds")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("restarts")), "{errs:?}");
    }

    #[test]
    fn serve_availability_outside_unit_interval_is_rejected() {
        let errs = check_bench_text(&serve_json("chaos", 1.5)).expect_err("1.5 must fail");
        assert!(errs.iter().any(|e| e.contains("outside [0, 1]")), "{errs:?}");
    }
}
