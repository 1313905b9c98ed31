//! The benchmark's vocabulary: workload names, metric names with units, and
//! the result record a worker hands back. `BENCHMARK.json` at the repo root
//! declares the same names; a test keeps the two in step.

use doduo_served::json::Json;
use std::collections::BTreeMap;

/// `(name, why)` of every workload. Names are stable: issues cite them.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("bulk_wide", "in-process calls of 64 distinct 5-column tables, 166 tokens each, f32: blocked GEMMs dominate, token cache cold"),
    ("bulk_narrow", "in-process, one 2-column 19-token table per call, 256 tables cycled: per-call overhead dominates, token cache hot"),
    ("bulk_wide_int8", "bulk_wide's exact inputs through the int8 engine: the quantized twin on the blocking path"),
    ("serve_open", "daemon, open loop: Poisson single-table requests at a fixed rate, timed from the due time, 25 ms limit"),
    ("serve_stream", "daemon, closed loop: /v1/annotate_stream sessions of 128 tables, one at a time, window of 16: saturation throughput"),
    ("finetune", "in-process trainer, one epoch over 64 labelled tables of 52 tokens per call: tape, backward, Adam"),
];

/// Metric direction as `BENCHMARK.json` spells it.
pub const LOWER: &str = "lower";
pub const HIGHER: &str = "higher";

/// `(name, unit, better)` of every end-to-end metric, emitted by every
/// workload of an untraced run.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", LOWER),
    ("tables_per_s", "1/s", HIGHER),
    ("cpu_ms_per_table", "ms", LOWER),
    ("peak_rss_mb", "MB", LOWER),
    ("slo_ok_ratio", "ratio", HIGHER),
];

/// `(name, unit, better)` of every per-layer metric, emitted by every
/// workload of a traced run (0 where a layer does not run).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("tokenizer.encode_s", "s", LOWER),
    ("tokenizer.tokens", "count", LOWER),
    ("table.column_tokens_s", "s", LOWER),
    ("table.assemble_s", "s", LOWER),
    ("table.seqs", "count", LOWER),
    ("table.seq_tokens", "count", LOWER),
    ("serve.serialize_s", "s", LOWER),
    ("serve.cache_hit_ratio", "ratio", HIGHER),
    ("serve.annotate_groups_s", "s", LOWER),
    ("serve.sched_self_s", "s", LOWER),
    ("serve.microbatches", "count", LOWER),
    ("serve.microbatch_tokens_mean", "count", HIGHER),
    ("core.annotate_serialized_s", "s", LOWER),
    ("core.heads_self_s", "s", LOWER),
    ("core.quant_annotate_serialized_s", "s", LOWER),
    ("core.bundle_load_s", "s", LOWER),
    ("core.quantize_s", "s", LOWER),
    ("core.prepare_s", "s", LOWER),
    ("core.train_call_s", "s", LOWER),
    ("transformer.forward_batch_s", "s", LOWER),
    ("transformer.quant_forward_batch_s", "s", LOWER),
    ("transformer.forward_single_s", "s", LOWER),
    ("tensor.embed_ln_s", "s", LOWER),
    ("tensor.qkv_s", "s", LOWER),
    ("tensor.attn_s", "s", LOWER),
    ("tensor.attn_out_s", "s", LOWER),
    ("tensor.ffn_s", "s", LOWER),
    ("tensor.gelu_s", "s", LOWER),
    ("tensor.ln_s", "s", LOWER),
    ("tensor.int8_linear_s", "s", LOWER),
    ("tensor.tape_nodes", "count", LOWER),
    ("tensor.gemm_flops", "count", LOWER),
    ("tensor.replay_gap_s", "s", LOWER),
    ("tensor.backward_s", "s", LOWER),
    ("tensor.adam_s", "s", LOWER),
    ("served.http_parse_s", "s", LOWER),
    ("served.json_decode_s", "s", LOWER),
    ("served.json_encode_s", "s", LOWER),
    ("served.http_render_s", "s", LOWER),
    ("served.batches", "count", LOWER),
    ("served.batch_tables_mean", "count", HIGHER),
    ("served.flush_budget", "count", HIGHER),
    ("served.flush_deadline", "count", LOWER),
    ("served.sheds", "count", LOWER),
    ("served.cache_hit_ratio", "ratio", HIGHER),
    ("served.server_latency_p50_ms", "ms", LOWER),
    ("served.queue_depth_max", "count", LOWER),
    ("served.ready_s", "s", LOWER),
    ("served.cpu_s", "s", LOWER),
    ("served.residual_ms_p50", "ms", LOWER),
    ("bench.send_late_ms_p99", "ms", LOWER),
    ("bench.backlog_growing", "count", LOWER),
    ("bench.stage_sum_ratio", "ratio", HIGHER),
    ("bench.trace_overhead_ratio", "ratio", LOWER),
    // Demoted from the end-to-end list: on the bench host their spread
    // between runs of one build exceeds any bound the contract allows.
    ("latency_p50_ms", "ms", LOWER),
    ("latency_p99_ms", "ms", LOWER),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.0 == name)
}

/// What one run of one workload produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Metric values by name; a worker fills exactly the names of
    /// [`END_TO_END`] or of [`PER_LAYER`].
    pub metrics: BTreeMap<String, f64>,
    /// Facts about the run that are not metrics (digest, sample counts,
    /// the percentile the tail stands for), as JSON values.
    pub info: BTreeMap<String, String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, key: &str, json_value: impl std::fmt::Display) {
        self.info.insert(key.to_string(), json_value.to_string());
    }

    /// Fills every metric of `list` this outcome lacks with 0: a layer
    /// that does not run in a workload did no work.
    pub fn fill_missing(&mut self, list: &[(&str, &str, &str)]) {
        for (name, _, _) in list {
            self.metrics.entry(name.to_string()).or_insert(0.0);
        }
    }

    /// The metrics as `{"name": {"value": v, "unit": "u"}, ...}` in the
    /// order of `list`.
    pub fn metrics_json(&self, list: &[(&str, &str, &str)]) -> String {
        let body = list
            .iter()
            .filter_map(|(name, unit, _)| {
                self.metrics
                    .get(*name)
                    .map(|v| format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v)))
            })
            .collect::<Vec<_>>()
            .join(",");
        format!("{{{body}}}")
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self, list: &[(&str, &str, &str)]) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json(list)
        )
    }

    /// The worker-to-parent line: the contract line plus `info`.
    pub fn worker_line(&self, list: &[(&str, &str, &str)]) -> String {
        let info =
            self.info.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect::<Vec<_>>().join(",");
        let line = self.contract_line(list);
        format!("{},\"info\":{{{info}}}}}", &line[..line.len() - 1])
    }

    pub fn parse(line: &str) -> Result<Outcome, String> {
        let v = Json::parse(line.trim())?;
        let int = |k: &str| {
            v.get(k).and_then(Json::as_f64).map(|f| f as u64).ok_or(format!("result lacks {k}"))
        };
        let mut out = Outcome {
            attempted: int("attempted")?,
            failed: int("failed")?,
            correct: matches!(v.get("correct"), Some(Json::Bool(true))),
            ..Outcome::default()
        };
        let metrics = v.get("metrics").and_then(Json::as_object).ok_or("result lacks metrics")?;
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric lacks value")?;
            out.metrics.insert(name.clone(), value);
        }
        if let Some(info) = v.get("info").and_then(Json::as_object) {
            for (k, j) in info {
                out.info.insert(k.clone(), j.encode());
            }
        }
        Ok(out)
    }
}

/// A finite number as JSON, with all its digits.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_line_round_trips() {
        let mut o = Outcome { attempted: 12, failed: 1, correct: true, ..Outcome::default() };
        o.set("setup_s", 0.0213);
        o.set("tables_per_s", 331.25);
        o.note("output_digest", "\"00ff\"");
        o.note("latency_samples", 40);
        let back = Outcome::parse(&o.worker_line(END_TO_END)).expect("parses");
        assert_eq!(back, o);
        let contract = o.contract_line(END_TO_END);
        assert!(contract.starts_with("{\"correct\":true,\"attempted\":12,\"failed\":1,\"metrics\":{\"setup_s\":{\"value\":0.0213,\"unit\":\"s\"}"));
        assert!(!contract.contains("info"));
    }

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.contains(&("setup_s", "s", LOWER)));
    }

    /// `BENCHMARK.json` is what the driver reads; it must declare exactly
    /// the workloads and metrics this program emits.
    #[test]
    fn benchmark_json_declares_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            v.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} array"))
                .iter()
                .map(|m| {
                    fields
                        .iter()
                        .map(|f| m.get(f).and_then(Json::as_str).expect("string field").to_string())
                        .collect()
                })
                .collect()
        };
        let want = |list: &[(&str, &str, &str)]| -> Vec<Vec<String>> {
            list.iter().map(|m| vec![m.0.into(), m.1.into(), m.2.into()]).collect()
        };
        assert_eq!(names("end_to_end", &["name", "unit", "better"]), want(END_TO_END));
        assert_eq!(names("per_layer", &["name", "unit", "better"]), want(PER_LAYER));
        let workloads: Vec<Vec<String>> =
            WORKLOADS.iter().map(|w| vec![w.0.into(), w.1.into()]).collect();
        assert_eq!(names("workloads", &["name", "why"]), workloads);
    }
}
