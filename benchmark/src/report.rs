//! The parent side: generate a world, run one workload in a fresh child,
//! and the three ways of using that — one workload for the driver, all six
//! for a person, and the A/A self-check.

use crate::common::TRACE_TABLES;
use crate::host::{ensure_comparable, Host};
use crate::metrics::{num, Outcome, END_TO_END, HIGHER, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, relative_spread};
use crate::world::{self, Inputs};
use doduo_served::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Warm-up before every measured window.
const WARM_S: f64 = 2.0;

#[derive(Clone, Debug)]
pub struct Request {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for temporary worlds, results and traces.
    pub out_dir: PathBuf,
    /// Write `trace-<workload>.json` into `out_dir` on traced runs.
    pub keep_traces: bool,
    /// Tables of a traced run.
    pub trace_tables: usize,
}

impl Request {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Request {
        Request {
            seed,
            seconds,
            trace,
            out_dir: PathBuf::from("benchmark/out"),
            keep_traces: false,
            trace_tables: TRACE_TABLES,
        }
    }

    /// Short windows (smoke runs) get a proportionally short warm-up.
    fn warm_s(&self) -> f64 {
        WARM_S.min(self.seconds * 0.3)
    }
}

fn inputs_of(workload: &str) -> Inputs {
    match workload {
        "bulk_wide" | "bulk_wide_int8" => Inputs::Wide,
        "bulk_narrow" => Inputs::Narrow,
        "finetune" => Inputs::Finetune,
        _ => Inputs::Mix,
    }
}

/// Removes the temporary world when the run is over, however it ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generates the world for `req.seed`, runs `workload` in a fresh child of
/// this executable and returns what it measured. The child gets the world's
/// directory, never the seed's meaning: set-up time, CPU time and peak
/// memory are the child's (or its daemon's), not the generator's.
pub fn run_workload(workload: &str, req: &Request) -> Result<Outcome, String> {
    let dir = TempDir(req.out_dir.join(format!("tmp-{}-{workload}", std::process::id())));
    std::fs::create_dir_all(&dir.0)
        .map_err(|e| format!("cannot create {}: {e}", dir.0.display()))?;
    world::generate(req.seed, &dir.0, inputs_of(workload))
        .map_err(|e| format!("cannot generate the world: {e}"))?;

    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("worker")
        .args(["--workload", workload])
        .arg("--dir")
        .arg(&dir.0)
        .args(["--seed", &req.seed.to_string()])
        .args(["--seconds", &req.seconds.to_string()])
        .args(["--warm", &req.warm_s().to_string()])
        .args(["--trace", if req.trace { "1" } else { "0" }])
        .args(["--trace-tables", &req.trace_tables.to_string()]);
    if req.trace && req.keep_traces {
        cmd.arg("--trace-out").arg(req.out_dir.join(format!("trace-{workload}.json")));
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} worker: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} worker ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or(format!("the {workload} worker printed nothing"))?;
    Outcome::parse(line).map_err(|e| format!("the {workload} worker's result does not parse: {e}"))
}

fn metric_list(trace: bool) -> &'static [(&'static str, &'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Driver mode: one workload, the contract's one-line result on stdout.
/// Returns the process exit code.
pub fn run_one(workload: &str, req: &Request) -> i32 {
    match run_workload(workload, req) {
        Ok(out) => {
            // The result line carries metrics only; the raw figures and
            // diagnostics behind them go to standard error.
            eprintln!("[benchmark] {workload} {}", outcome_json(&out, req.trace));
            println!("{}", out.contract_line(metric_list(req.trace)));
            i32::from(!out.correct)
        }
        Err(e) => {
            eprintln!("[benchmark] {e}");
            1
        }
    }
}

fn print_outcome(workload: &str, out: &Outcome, trace: bool) {
    println!(
        "{workload}: attempted {} failed {} correct {}",
        out.attempted, out.failed, out.correct
    );
    for (name, unit, _) in metric_list(trace) {
        let v = out.metrics.get(*name).copied().unwrap_or(0.0);
        // A traced run prints only the layers that ran in this workload.
        if !trace || v != 0.0 {
            println!("  {name:<36} {v:>16.6} {unit}");
        }
    }
    if !trace {
        let ratio = out.failed as f64 / out.attempted.max(1) as f64;
        println!("  {:<36} {ratio:>16.6} ratio", "failed_ratio");
        // Demoted to diagnostics on the bench host (see the README): the
        // window's operation latencies, not bounded.
        for key in ["latency_p50_ms", "latency_p99_ms"] {
            if let Some(v) = out.info.get(key).and_then(|v| v.parse::<f64>().ok()) {
                println!("  {key:<36} {v:>16.6} ms (diagnostic)");
            }
        }
        // By wall clock, before the host gauge was applied.
        for (key, unit) in [("raw_tables_per_s", "1/s"), ("raw_cpu_ms_per_table", "ms")] {
            if let Some(v) = out.info.get(key).and_then(|v| v.parse::<f64>().ok()) {
                println!("  {key:<36} {v:>16.6} {unit} (wall clock)");
            }
        }
        for key in ["host_slowdown", "latency_samples", "latency_tail_percentile", "output_digest"]
        {
            if let Some(v) = out.info.get(key) {
                println!("  ({key} = {v})");
            }
        }
    }
}

fn outcome_json(out: &Outcome, trace: bool) -> String {
    let info = out.info.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect::<Vec<_>>().join(",");
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{},\"info\":{{{info}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        out.metrics_json(metric_list(trace))
    )
}

/// Why int8 is 2.4-3.9x at the kernel and far less end to end: the traced
/// `bulk_wide` and `bulk_wide_int8` runs side by side, one row per stage.
fn int8_gap_table(f32_run: &Outcome, int8_run: &Outcome) -> String {
    // `(metric, what)`; the int8 run reports the same stage under the same
    // name, except the whole forward.
    let rows = [
        ("serve.serialize_s", "tokenize + assemble through the cache (f32 in both)"),
        ("serve.sched_self_s", "sort, cut, thread scope, scatter"),
        ("core.heads_self_s", "row select, heads, label decode"),
        ("tensor.embed_ln_s", "embeddings + LayerNorm (f32 in both)"),
        ("tensor.qkv_s", "QKV projection: f32 GEMM vs int8"),
        ("tensor.attn_s", "attention (f32 in both)"),
        ("tensor.attn_out_s", "attention output: f32 GEMM vs int8"),
        ("tensor.ffn_s", "FFN, two linears: f32 GEMM vs int8"),
        ("tensor.gelu_s", "GELU (f32 in both)"),
        ("tensor.ln_s", "residual add + LayerNorm (f32 in both)"),
        ("transformer.forward_batch_s", "whole encoder forward"),
    ];
    let get = |o: &Outcome, k: &str| o.metrics.get(k).copied().unwrap_or(0.0);
    let mut t = String::from(
        "| stage | bulk_wide s | bulk_wide_int8 s | f32 / int8 | what |\n|---|---|---|---|---|\n",
    );
    for (name, what) in rows {
        let int8_name = name.replace("transformer.forward", "transformer.quant_forward");
        let (x, y) = (get(f32_run, name), get(int8_run, &int8_name));
        let ratio = if y > 0.0 { format!("{:.2}x", x / y) } else { "-".into() };
        t.push_str(&format!("| `{name}` | {x:.4} | {y:.4} | {ratio} | {what} |\n"));
    }
    let dense =
        |o: &Outcome| get(o, "tensor.qkv_s") + get(o, "tensor.attn_out_s") + get(o, "tensor.ffn_s");
    let stages = |o: &Outcome| get(o, "serve.serialize_s") + get(o, "serve.annotate_groups_s");
    t.push_str(&format!(
        "| dense layers only | {:.4} | {:.4} | {:.2}x | the kernel-level gain |\n",
        dense(f32_run),
        dense(int8_run),
        dense(f32_run) / dense(int8_run).max(1e-12)
    ));
    t.push_str(&format!(
        "| whole call | {:.4} | {:.4} | {:.2}x | serialize + annotate_groups: the end-to-end gain |\n",
        stages(f32_run),
        stages(int8_run),
        stages(f32_run) / stages(int8_run).max(1e-12)
    ));
    t
}

/// Everything: all six workloads, every metric printed by name with its
/// unit, results written under `req.out_dir`. Returns the exit code.
pub fn run_all(req: &Request) -> i32 {
    let host = Host::detect(req.seed);
    eprintln!("[benchmark] host {}", host.to_json());
    let mut results: Vec<(&str, Outcome)> = Vec::new();
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        eprintln!(
            "[benchmark] {workload} ({}, {} s window)",
            if req.trace { "traced" } else { "untraced" },
            req.seconds
        );
        match run_workload(workload, req) {
            Ok(out) => {
                print_outcome(workload, &out, req.trace);
                ok &= out.correct;
                results.push((workload, out));
            }
            Err(e) => {
                eprintln!("[benchmark] {e}");
                ok = false;
            }
        }
    }
    let body = results
        .iter()
        .map(|(w, o)| format!("\"{w}\":{}", outcome_json(o, req.trace)))
        .collect::<Vec<_>>()
        .join(",\n");
    let mut json = format!(
        "{{\"host\":{},\"seconds\":{},\"traced\":{},\n\"workloads\":{{\n{body}\n}}",
        host.to_json(),
        num(req.seconds),
        req.trace
    );
    if req.trace {
        let find = |w: &str| results.iter().find(|r| r.0 == w).map(|r| &r.1);
        if let (Some(a), Some(b)) = (find("bulk_wide"), find("bulk_wide_int8")) {
            let table = int8_gap_table(a, b);
            println!("\nint8: per-layer account of the kernel vs end-to-end gap\n\n{table}");
            let mut escaped = String::new();
            doduo_served::json::push_escaped(&mut escaped, &table);
            json.push_str(&format!(",\n\"int8_gap_table\":{escaped}"));
        }
    }
    json.push_str("}\n");
    let file = if req.trace { "result-trace.json" } else { "result.json" };
    let path = req.out_dir.join(file);
    match std::fs::create_dir_all(&req.out_dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => eprintln!("[benchmark] wrote {}", path.display()),
        Err(e) => {
            eprintln!("[benchmark] cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    i32::from(!ok)
}

/// The bound of each end-to-end metric, from `BENCHMARK.json`.
fn read_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = Json::parse(&text)?;
    let list = v.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// One metric of one workload over two sets of runs of the same build.
#[derive(Debug, PartialEq)]
pub struct AaRow {
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    /// How much worse B's median is than A's, as a share of A's (negative
    /// when B is better).
    pub drift: f64,
}

pub fn aa_row(a: &[f64], b: &[f64], higher_is_better: bool) -> AaRow {
    let (median_a, median_b) = (median(a), median(b));
    let worse = if higher_is_better { median_a - median_b } else { median_b - median_a };
    AaRow {
        median_a,
        median_b,
        spread_a: relative_spread(a),
        spread_b: relative_spread(b),
        drift: if median_a == 0.0 { 0.0 } else { worse / median_a.abs() },
    }
}

impl AaRow {
    /// The acceptance rule: both spreads within the bound (set-up time is
    /// exempt from that half), and the second median not worse than the
    /// first by more than the bound.
    pub fn within(&self, bound: f64, spread_counts: bool) -> bool {
        let spread_ok = !spread_counts || (self.spread_a <= bound && self.spread_b <= bound);
        spread_ok && self.drift <= bound
    }
}

/// A/A self-check: two interleaved sets of `n` invocations of this build,
/// seed `base + i` for the i-th of each set. Prints, per metric and
/// workload, both medians, quartiles and spreads against the bound.
/// Returns non-zero when a spread or the drift between the sets exceeds it.
pub fn run_aa(n: usize, req: &Request) -> i32 {
    if n < 2 {
        eprintln!("[benchmark] --aa needs at least 2 invocations per set");
        return 2;
    }
    let bounds = match read_bounds(Path::new("BENCHMARK.json")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("[benchmark] cannot read the bounds: {e}");
            return 2;
        }
    };
    // values[set][workload][metric] -> one value per invocation
    let mut values: [BTreeMap<(String, String), Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut hosts: Vec<Host> = Vec::new();
    let mut ok = true;
    for i in 0..n {
        let req = Request { seed: req.seed + i as u64, ..req.clone() };
        // Alternate which set goes first, so drift over time hits both.
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        hosts.push(Host::detect(req.seed));
        for (workload, _) in WORKLOADS {
            for set in order {
                eprintln!("[benchmark] a/a {} of {n}, set {}, {workload}", i + 1, ["A", "B"][set]);
                match run_workload(workload, &req) {
                    Ok(out) => {
                        ok &= out.correct;
                        for (name, v) in &out.metrics {
                            values[set]
                                .entry((workload.to_string(), name.clone()))
                                .or_default()
                                .push(*v);
                        }
                    }
                    Err(e) => {
                        eprintln!("[benchmark] {e}");
                        ok = false;
                    }
                }
            }
        }
    }
    for h in &hosts[1..] {
        if let Err(e) = ensure_comparable(&hosts[0], h) {
            eprintln!("[benchmark] {e}");
            return 2;
        }
    }
    println!(
        "{:<15} {:<18} {:>12} {:>12} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "drift", "bound"
    );
    let mut json_rows = Vec::new();
    for (workload, _) in WORKLOADS {
        for (metric, _, better) in END_TO_END {
            let key = (workload.to_string(), metric.to_string());
            let (Some(a), Some(b)) = (values[0].get(&key), values[1].get(&key)) else { continue };
            if a.len() < 2 || b.len() < 2 {
                continue;
            }
            let row = aa_row(a, b, *better == HIGHER);
            let bound = bounds.get(*metric).copied().unwrap_or(0.0);
            let pass = row.within(bound, *metric != "setup_s");
            ok &= pass;
            println!(
                "{workload:<15} {metric:<18} {:>12.5} {:>12.5} {:>8.4} {:>8.4} {:>8.4} {bound:>7.3}  {}",
                row.median_a,
                row.median_b,
                row.spread_a,
                row.spread_b,
                row.drift,
                if pass { "ok" } else { "EXCEEDS" }
            );
            let q = |v: &[f64]| {
                let q = quartiles(v);
                format!("[{},{},{}]", num(q[0]), num(q[1]), num(q[2]))
            };
            json_rows.push(format!(
                "{{\"workload\":\"{workload}\",\"metric\":\"{metric}\",\"bound\":{},\
                 \"median_a\":{},\"median_b\":{},\"quartiles_a\":{},\"quartiles_b\":{},\
                 \"spread_a\":{},\"spread_b\":{},\"drift\":{},\"ok\":{pass}}}",
                num(bound),
                num(row.median_a),
                num(row.median_b),
                q(a),
                q(b),
                num(row.spread_a),
                num(row.spread_b),
                num(row.drift)
            ));
        }
    }
    let json = format!(
        "{{\"host\":{},\"invocations_per_set\":{n},\"seconds\":{},\"rows\":[\n{}\n]}}\n",
        hosts[0].to_json(),
        num(req.seconds),
        json_rows.join(",\n")
    );
    let path = req.out_dir.join("aa.json");
    if let Err(e) = std::fs::create_dir_all(&req.out_dir).and_then(|()| std::fs::write(&path, json))
    {
        eprintln!("[benchmark] cannot write {}: {e}", path.display());
    }
    i32::from(!ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_follows_the_metric_direction() {
        let a = [10.0, 10.0, 10.0, 10.0];
        let slower = [11.0, 11.0, 11.0, 11.0];
        // Lower is better: B is 10% worse.
        let row = aa_row(&a, &slower, false);
        assert!((row.drift - 0.1).abs() < 1e-12);
        assert!(row.within(0.10001, true) && !row.within(0.05, true));
        // Higher is better: the same numbers are a 10% gain, never a miss.
        assert!(aa_row(&a, &slower, true).drift < 0.0);
        assert!(aa_row(&a, &slower, true).within(0.0, true));
    }

    #[test]
    fn a_wide_spread_fails_unless_it_is_set_up_time() {
        let noisy = [8.0, 9.0, 10.0, 11.0, 12.0];
        let row = aa_row(&noisy, &noisy, false);
        assert!(row.spread_a > 0.25);
        assert!(!row.within(0.25, true));
        assert!(row.within(0.25, false), "set-up time is only held to the drift rule");
    }
}
