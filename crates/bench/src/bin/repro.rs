//! `repro` — the one-command reproduction harness.
//!
//! Runs the whole paper-reproduction pipeline at a chosen scale and exits
//! nonzero on any failure, so "does the reproduction still hold?" is one
//! command (and one CI job):
//!
//! ```text
//! repro --scale quick                 # everything, CI smoke scale
//! repro --scale full                  # everything, paper scale
//! repro --scale quick --only serve    # one stage (+ its dependencies)
//! repro --scale quick --only tables --bless   # record new expectations
//! ```
//!
//! Stages (see `doduo_bench::stages` for the graph):
//!
//! 1. **tables** — run every paper table/figure binary, write its stdout
//!    under `repro_out/`, scan for `[FAIL]`, and diff against the committed
//!    expectation in `ci/expected/<bin>.<scale>.txt`. Stdout is
//!    deterministic by policy (timings go to stderr; numerics are
//!    bit-identical across thread counts), so the diff is portable.
//! 2. **train** — fine-tune the default Doduo model as a library call and
//!    save it as an `AnnotatorBundle` checkpoint (`repro_out/doduo_<scale>.dckpt`),
//!    the artifact `doduo-served --checkpoint` consumes.
//! 3. **serve** — load that checkpoint, serve it over real TCP in-process,
//!    prove every `/annotate` response byte-identical to offline, then
//!    decode the daemon's responses into prediction sets and re-run the
//!    Table-3 qualitative checks against the *served* model.
//! 4. **bench** — re-run `gemm` and `serve_load`, which rewrite the
//!    committed `BENCH_gemm.json` / `BENCH_serve.json` in place (validated
//!    and stamped with the `host` metadata block by the bins themselves),
//!    print their tables and count their `[FAIL]` lines. Every other
//!    performance number comes from `benchmark/run.sh`.

use doduo_bench::report::{pct, Report};
use doduo_bench::stages::{select_stages, StageDef};
use doduo_bench::{run_sherlock, shared_usage, ArgError, ExpOptions, ModelSpec, Scale, World};
use doduo_core::{AnnotatorBundle, Task, ENC_PREFIX};
use doduo_eval::{multi_label_micro, Prf};
use doduo_served::http::Client;
use doduo_served::json::table_to_json;
use doduo_served::validate::{check_online_equivalence, offline_response_quant};
use doduo_served::{ServeConfig, Server};
use doduo_table::{AnnotatedTable, LabelVocab};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// The paper table/figure binaries the `tables` stage regenerates. `tune`
/// is deliberately absent: it is a sweep helper, not a paper experiment,
/// and forces `--no-cache`.
const TABLE_BINS: &[&str] = &[
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
    "table12",
    "table13",
    "figure4",
    "figure5",
    "figure6",
    "ablation_dirty",
];

/// The bench binaries the `bench` stage re-runs; each rewrites its
/// committed artifact (`BENCH_gemm.json`, `BENCH_serve.json`) in the
/// working directory, or exits nonzero.
const BENCH_BINS: &[&str] = &["gemm", "serve_load"];

struct ReproArgs {
    opts: ExpOptions,
    only: Vec<String>,
    bless: bool,
}

fn usage(bin: &str) -> String {
    format!(
        "{}\n\
         \n\
         repro options:\n\
         \x20 --only STAGE         run one stage (+ its dependencies); repeatable.\n\
         \x20                      stages: {}\n\
         \x20 --bless              (tables stage) record the outputs as the new\n\
         \x20                      expectations under ci/expected/ instead of diffing\n\
         \n\
         Outputs land in repro_out/; run from the repository root so the bench\n\
         stage rewrites the committed BENCH_*.json files.",
        shared_usage(bin, "one-command reproduction harness: tables, train, serve, bench"),
        doduo_bench::stages::STAGES.iter().map(|s| s.name).collect::<Vec<_>>().join(", "),
    )
}

fn parse_args() -> ReproArgs {
    let argv: Vec<String> = std::env::args().collect();
    let mut shared: Vec<String> = Vec::new();
    let mut only = Vec::new();
    let mut bless = false;
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--only" => {
                i += 1;
                match argv.get(i) {
                    Some(s) => only.push(s.clone()),
                    None => {
                        eprintln!("--only needs a stage name\n\n{}", usage("repro"));
                        std::process::exit(2);
                    }
                }
            }
            "--bless" => bless = true,
            other => shared.push(other.to_string()),
        }
        i += 1;
    }
    let opts = match ExpOptions::parse(&shared) {
        Ok(o) => o,
        Err(ArgError::Help) => {
            println!("{}", usage("repro"));
            std::process::exit(0);
        }
        Err(ArgError::Bad(msg)) => {
            eprintln!("{msg}\n\n{}", usage("repro"));
            std::process::exit(2);
        }
    };
    ReproArgs { opts, only, bless }
}

fn scale_str(s: Scale) -> &'static str {
    match s {
        Scale::Quick => "quick",
        Scale::Full => "full",
    }
}

/// Everything the `train` stage hands to `serve`.
struct TrainedWorld {
    world: World,
    checkpoint: PathBuf,
    /// Offline test scores of the checkpointed model, for the
    /// daemon-vs-offline F1 equality check.
    type_f1: f64,
    rel_f1: f64,
}

struct Harness {
    args: ReproArgs,
    out_dir: PathBuf,
    expected_dir: PathBuf,
    trained: Option<TrainedWorld>,
}

impl Harness {
    /// Resolves a sibling binary (the bins of this same build).
    fn sibling(&self, bin: &str) -> PathBuf {
        let me = std::env::current_exe().expect("current_exe");
        me.parent().expect("bin dir").join(bin)
    }

    /// Runs a sibling with the shared flags, capturing stdout. Stderr is
    /// inherited so training/bench progress stays visible.
    fn run_sibling(&self, bin: &str, extra: &[&str]) -> Result<String, String> {
        let mut cmd = Command::new(self.sibling(bin));
        cmd.arg("--scale")
            .arg(scale_str(self.args.opts.scale))
            .arg("--seed")
            .arg(self.args.opts.seed.to_string());
        if self.args.opts.no_cache {
            cmd.arg("--no-cache");
        }
        cmd.args(extra);
        let out = cmd.output().map_err(|e| format!("cannot run {bin}: {e}"))?;
        if !out.status.success() {
            return Err(format!("{bin} exited with {}", out.status));
        }
        String::from_utf8(out.stdout).map_err(|_| format!("{bin} wrote non-UTF-8 stdout"))
    }

    fn stage_tables(&mut self) -> Result<String, String> {
        let scale = scale_str(self.args.opts.scale);
        let mut blessed = 0;
        let mut known_failing = 0;
        for bin in TABLE_BINS {
            let t = Instant::now();
            let stdout = self.run_sibling(bin, &[])?;
            let name = format!("{bin}.{scale}.txt");
            let out_path = self.out_dir.join(&name);
            std::fs::write(&out_path, &stdout)
                .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
            // Some qualitative checks are known not to hold at quick scale
            // (the shape needs the full-scale world). The gate is the
            // *snapshot diff*: the committed expectation records exactly
            // which checks pass at this scale, so a check flipping either
            // way fails the diff below.
            known_failing += stdout.matches("[FAIL]").count();
            let expected_path = self.expected_dir.join(&name);
            if self.args.bless {
                std::fs::create_dir_all(&self.expected_dir)
                    .map_err(|e| format!("cannot create {}: {e}", self.expected_dir.display()))?;
                std::fs::write(&expected_path, &stdout)
                    .map_err(|e| format!("cannot write {}: {e}", expected_path.display()))?;
                blessed += 1;
            } else {
                let expected = std::fs::read_to_string(&expected_path).map_err(|_| {
                    format!(
                        "{bin}: no committed expectation at {} (run with --bless to record one)",
                        expected_path.display()
                    )
                })?;
                if expected != stdout {
                    diff_hint(bin, &expected, &stdout)?;
                }
            }
            eprintln!("[repro] tables: {bin} ok in {:?}", t.elapsed());
        }
        Ok(if self.args.bless {
            format!(
                "{blessed} expectations recorded under {} ({known_failing} known-failing checks \
                 at this scale)",
                self.expected_dir.display()
            )
        } else {
            format!(
                "{} binaries match ci/expected/ ({known_failing} known-failing checks at this \
                 scale, unchanged)",
                TABLE_BINS.len()
            )
        })
    }

    fn stage_train(&mut self) -> Result<String, String> {
        let world = World::bootstrap(self.args.opts.clone());
        let splits = world.wikitable();
        let cfg = world.train_config();
        let tasks = [Task::ColumnType, Task::ColumnRelation];
        let doduo =
            world.trained_model("wiki-doduo", &ModelSpec::doduo(), &splits, &tasks, true, &cfg);
        let type_f1 = doduo.scores.type_micro.f1;
        let rel_f1 = doduo.scores.rel_micro.map(|r| r.f1).unwrap_or(0.0);
        let bundle = AnnotatorBundle::new(
            doduo.store,
            doduo.model,
            world.lm.tokenizer.clone(),
            splits.train.type_vocab.clone(),
            splits.train.rel_vocab.clone(),
            ENC_PREFIX,
        );
        let path = self.out_dir.join(format!("doduo_{}.dckpt", scale_str(self.args.opts.scale)));
        bundle.save_to(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        self.trained = Some(TrainedWorld { world, checkpoint: path.clone(), type_f1, rel_f1 });
        Ok(format!(
            "checkpoint {} ({:.1} MiB), offline type F1 {}, rel F1 {}",
            path.display(),
            size as f64 / (1024.0 * 1024.0),
            pct(type_f1),
            pct(rel_f1),
        ))
    }

    fn stage_serve(&mut self) -> Result<String, String> {
        let trained = self.trained.as_ref().expect("serve depends on train");
        let world = &trained.world;
        let splits = world.wikitable();
        let cfg = world.train_config();
        let tasks = [Task::ColumnType, Task::ColumnRelation];

        // The checkpoint round-trips through disk — serving what a daemon
        // restart would actually load.
        let bundle = std::sync::Arc::new(AnnotatorBundle::load_from(&trained.checkpoint)?);

        // Offline comparison points for the Table-3 checks (cache hits when
        // the tables stage — or a previous run — already trained them).
        let (sher_pred, sher_gold) = run_sherlock(&splits, true, world.opts.scale, world.opts.seed);
        let sherlock = multi_label_micro(&sher_pred, &sher_gold);
        let turl =
            world.trained_model("wiki-turl", &ModelSpec::turl(), &splits, &tasks, true, &cfg);
        let turl_meta = world.trained_model(
            "wiki-turl-meta",
            &ModelSpec::turl().with_metadata(),
            &splits,
            &tasks,
            true,
            &cfg,
        );
        let doduo_meta = world.trained_model(
            "wiki-doduo-meta",
            &ModelSpec::doduo().with_metadata(),
            &splits,
            &tasks,
            true,
            &cfg,
        );

        let bodies: Vec<String> =
            splits.test.tables.iter().map(|at| table_to_json(&at.table)).collect();

        let server = Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), ..Default::default() })
            .map_err(|e| format!("cannot bind: {e}"))?;
        let addr = server.addr().to_string();
        let handle = server.handle();

        let (identical, daemon_type, daemon_rel) = std::thread::scope(|scope| {
            let srv = scope.spawn(|| server.run(bundle.clone()));
            let result = (|| -> Result<_, String> {
                // Gate 1: every response byte-identical to offline, over
                // real TCP.
                let identical = check_online_equivalence(&addr, &bundle, &bodies)?;
                // Gate 2: decode the daemon's own responses into prediction
                // sets and score them against gold.
                let mut client = Client::connect(&addr, Some(Duration::from_secs(60)))
                    .map_err(|e| format!("cannot connect: {e}"))?;
                let mut texts = Vec::new();
                for body in &bodies {
                    let resp = client
                        .request("POST", "/v1/annotate", body.as_bytes())
                        .map_err(|e| format!("annotate: {e}"))?;
                    texts.push(
                        String::from_utf8(resp.body)
                            .map_err(|_| "non-UTF-8 response".to_string())?,
                    );
                }
                let (t, rel) = score_responses(
                    &splits.test.tables,
                    &texts,
                    &splits.test.type_vocab,
                    &splits.test.rel_vocab,
                )?;
                Ok((identical, t, rel))
            })();
            handle.shutdown();
            srv.join().expect("server thread");
            result
        })?;

        // Gate 3: the int8 tier over the same trained checkpoint. Offline
        // responses stand in for an int8 daemon — the quantized path is
        // batch-composition invariant, so a `--quant int8` daemon would
        // return these exact bytes (CI's serve-smoke proves that end to
        // end over TCP).
        let quant_texts: Vec<String> =
            bodies.iter().map(|b| offline_response_quant(&bundle, b)).collect::<Result<_, _>>()?;
        let (quant_type, quant_rel) = score_responses(
            &splits.test.tables,
            &quant_texts,
            &splits.test.type_vocab,
            &splits.test.rel_vocab,
        )?;

        let mut r = Report::new(
            "Serve: Table-3 checks against the daemon-served checkpoint",
            &["method", "type F1", "rel F1", "source"],
        );
        r.row(&["Sherlock".into(), pct(sherlock.f1), "-".into(), "offline".into()]);
        r.row(&[
            "TURL (repro)".into(),
            pct(turl.scores.type_micro.f1),
            turl.scores.rel_micro.map(|x| pct(x.f1)).unwrap_or_else(|| "-".into()),
            "offline".into(),
        ]);
        r.row(&["Doduo (served)".into(), pct(daemon_type.f1), pct(daemon_rel.f1), "daemon".into()]);
        r.row(&["Doduo (int8)".into(), pct(quant_type.f1), pct(quant_rel.f1), "quant".into()]);
        r.row(&[
            "TURL+metadata".into(),
            pct(turl_meta.scores.type_micro.f1),
            turl_meta.scores.rel_micro.map(|x| pct(x.f1)).unwrap_or_else(|| "-".into()),
            "offline".into(),
        ]);
        r.row(&[
            "Doduo+metadata".into(),
            pct(doduo_meta.scores.type_micro.f1),
            doduo_meta.scores.rel_micro.map(|x| pct(x.f1)).unwrap_or_else(|| "-".into()),
            "offline".into(),
        ]);

        r.check(
            format!("all {identical} daemon responses byte-identical to offline"),
            identical == bodies.len(),
        );
        r.check(
            "daemon type F1 == offline type F1 (served checkpoint is the trained model)",
            (daemon_type.f1 - trained.type_f1).abs() < 1e-9,
        );
        r.check("daemon rel F1 == offline rel F1", (daemon_rel.f1 - trained.rel_f1).abs() < 1e-9);
        // The five Table-3 qualitative checks, with Doduo's side measured
        // through the daemon.
        r.check(
            "Doduo type F1 > TURL type F1 (paper: 92.45 > 88.86)",
            daemon_type.f1 > turl.scores.type_micro.f1,
        );
        r.check(
            "Doduo type F1 > Sherlock type F1 (paper: 92.45 > 78.47)",
            daemon_type.f1 > sherlock.f1,
        );
        r.check(
            "Doduo rel F1 >= TURL rel F1 (paper: 91.72 > 90.94)",
            daemon_rel.f1 >= turl.scores.rel_micro.map(|x| x.f1).unwrap_or(0.0),
        );
        r.check(
            "metadata helps or ties Doduo type F1 (paper: 92.79 >= 92.45)",
            doduo_meta.scores.type_micro.f1 >= daemon_type.f1 - 0.01,
        );
        r.check(
            "metadata helps TURL more than Doduo (paper: +3.8 vs +0.3 type F1)",
            (turl_meta.scores.type_micro.f1 - turl.scores.type_micro.f1)
                > (doduo_meta.scores.type_micro.f1 - daemon_type.f1) - 0.01,
        );
        // The int8 accuracy gate: quantization may drift scores in the low
        // bits but must not move micro-F1 beyond the pinned tolerance, and
        // every Table-3 qualitative conclusion must survive the int8 tier.
        const QUANT_F1_TOL: f64 = 0.02;
        r.check(
            format!("int8 type F1 within {QUANT_F1_TOL} of f32 (accuracy gate)"),
            (quant_type.f1 - daemon_type.f1).abs() <= QUANT_F1_TOL,
        );
        r.check(
            format!("int8 rel F1 within {QUANT_F1_TOL} of f32 (accuracy gate)"),
            (quant_rel.f1 - daemon_rel.f1).abs() <= QUANT_F1_TOL,
        );
        r.check(
            "int8: Doduo type F1 > TURL type F1 (Table-3 check survives quantization)",
            quant_type.f1 > turl.scores.type_micro.f1,
        );
        r.check(
            "int8: Doduo type F1 > Sherlock type F1 (Table-3 check survives quantization)",
            quant_type.f1 > sherlock.f1,
        );
        r.check(
            "int8: Doduo rel F1 >= TURL rel F1 (Table-3 check survives quantization)",
            quant_rel.f1 >= turl.scores.rel_micro.map(|x| x.f1).unwrap_or(0.0),
        );
        r.check(
            "int8: metadata helps or ties Doduo type F1 (Table-3 check survives quantization)",
            doduo_meta.scores.type_micro.f1 >= quant_type.f1 - 0.01,
        );
        r.check(
            "int8: metadata helps TURL more than Doduo (Table-3 check survives quantization)",
            (turl_meta.scores.type_micro.f1 - turl.scores.type_micro.f1)
                > (doduo_meta.scores.type_micro.f1 - quant_type.f1) - 0.01,
        );
        r.print();
        if !r.all_checks_pass() {
            return Err("serve-stage checks failed".into());
        }
        Ok(format!(
            "{} responses byte-identical, daemon type F1 {} / rel F1 {}, int8 type F1 {} / rel \
             F1 {}, Table-3 checks pass in both tiers",
            bodies.len(),
            pct(daemon_type.f1),
            pct(daemon_rel.f1),
            pct(quant_type.f1),
            pct(quant_rel.f1),
        ))
    }

    fn stage_bench(&mut self) -> Result<String, String> {
        let mut failing = 0;
        for bin in BENCH_BINS {
            let t = Instant::now();
            // The sibling's stdout is its `Report` table: a bar that failed
            // on this host's clocks is at least read.
            let stdout = self.run_sibling(bin, &[])?;
            print!("{stdout}");
            failing += stdout.matches("[FAIL]").count();
            eprintln!("[repro] bench: {bin} rewrote its artifact in {:?}", t.elapsed());
        }
        Ok(format!(
            "rewrote BENCH_gemm.json, BENCH_serve.json ({failing} failing report-only checks)"
        ))
    }

    fn run_stage(&mut self, s: &StageDef) -> Result<String, String> {
        match s.name {
            "tables" => self.stage_tables(),
            "train" => self.stage_train(),
            "serve" => self.stage_serve(),
            "bench" => self.stage_bench(),
            other => Err(format!("stage {other} has no implementation")),
        }
    }
}

/// Decodes per-table `/annotate` response bodies into prediction sets
/// (threshold/argmax rule) and scores them micro-averaged against gold,
/// returning `(type, relation)` scores. Shared between the f32 daemon gate
/// and the int8 accuracy gate so both tiers are judged by the same rule.
fn score_responses(
    tables: &[AnnotatedTable],
    texts: &[String],
    type_vocab: &LabelVocab,
    rel_vocab: &LabelVocab,
) -> Result<(Prf, Prf), String> {
    let mut type_pred = Vec::new();
    let mut type_gold = Vec::new();
    let mut rel_pred = Vec::new();
    let mut rel_gold = Vec::new();
    for (at, text) in tables.iter().zip(texts) {
        let dec = doduo_served::validate::decode_annotation(text)?;
        for (col, labels) in &dec.col_types {
            type_pred.push(to_ids(labels, type_vocab)?);
            type_gold.push(at.col_types[*col].clone());
        }
        for gold_rel in &at.relations {
            let pred = dec
                .relations
                .iter()
                .find(|(s, o, _)| *s == gold_rel.subject_col && *o == gold_rel.object_col)
                .map(|(_, _, labels)| to_ids(labels, rel_vocab))
                .transpose()?
                .unwrap_or_default();
            rel_pred.push(pred);
            rel_gold.push(vec![gold_rel.relation]);
        }
    }
    Ok((multi_label_micro(&type_pred, &type_gold), multi_label_micro(&rel_pred, &rel_gold)))
}

/// Maps decoded label names back to ids under the dataset's vocabulary.
fn to_ids(labels: &[String], vocab: &LabelVocab) -> Result<Vec<u32>, String> {
    labels
        .iter()
        .map(|n| vocab.id(n).ok_or_else(|| format!("daemon emitted unknown label {n:?}")))
        .collect()
}

/// Fails with the first differing line between expectation and output.
fn diff_hint(bin: &str, expected: &str, actual: &str) -> Result<(), String> {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return Err(format!(
                "{bin}: output differs from expectation at line {}:\n  expected: {e}\n  actual:   {a}",
                i + 1
            ));
        }
    }
    Err(format!(
        "{bin}: output differs from expectation in length ({} vs {} lines)",
        expected.lines().count(),
        actual.lines().count()
    ))
}

fn main() {
    let args = parse_args();
    let stages = match select_stages(&args.only) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from("repro_out");
    std::fs::create_dir_all(&out_dir).expect("create repro_out/");
    let mut h = Harness {
        args,
        out_dir,
        expected_dir: PathBuf::from("ci").join("expected"),
        trained: None,
    };

    let t0 = Instant::now();
    eprintln!(
        "[repro] scale {}, seed {}, stages: {}",
        scale_str(h.args.opts.scale),
        h.args.opts.seed,
        stages.iter().map(|s| s.name).collect::<Vec<_>>().join(" → "),
    );
    let mut summary = Report::new("Reproduction summary", &["stage", "result"]);
    let mut failed = false;
    for s in &stages {
        let t = Instant::now();
        eprintln!("[repro] === stage {} — {}", s.name, s.about);
        match h.run_stage(s) {
            Ok(msg) => {
                eprintln!("[repro] === stage {} ok in {:?}", s.name, t.elapsed());
                summary.row(&[s.name.into(), msg]);
                summary.check(format!("stage {}", s.name), true);
            }
            Err(e) => {
                eprintln!("[repro] === stage {} FAILED in {:?}: {e}", s.name, t.elapsed());
                summary.row(&[s.name.into(), format!("FAILED: {e}")]);
                summary.check(format!("stage {}", s.name), false);
                failed = true;
                // Later stages may depend on this one's outputs; stop.
                break;
            }
        }
    }
    summary.print();
    eprintln!("[repro] total elapsed {:?}", t0.elapsed());
    if failed {
        std::process::exit(1);
    }
}
