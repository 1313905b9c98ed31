//! Shared experiment harness for the per-table / per-figure binaries.
//!
//! Every binary follows the same recipe: build the deterministic world
//! (knowledge base → corpus → pretrained LM → benchmark datasets), train the
//! models its table needs, and print the paper's numbers next to the
//! measured ones. Expensive artifacts are cached under
//! `target/doduo-cache/` keyed by configuration, so binaries that share a
//! model (e.g. default Doduo on WikiTable) train it once: the pretrained LM
//! as its weight records and vocabulary (its encoder shape is the scale's
//! pretraining recipe's), a fine-tuned model as an [`AnnotatorBundle`]. An
//! entry is a hit only if its records build its model exactly — anything
//! else is a miss that trains again — and every entry is written to a
//! temporary file and renamed into place, so an interrupted run leaves no
//! torn one.
//!
//! Run e.g. `cargo run --release -p doduo-bench --bin table3 -- --scale quick`.

use doduo_core::{
    build_finetune_model, instantiate_lm, predict_tasks, prepare, pretrain_lm, train,
    AnnotatorBundle, AttentionMode, DoduoConfig, DoduoModel, EvalScores, InputMode, Predictions,
    PretrainRecipe, PretrainedLm, Task, TrainConfig, ENC_PREFIX,
};
use doduo_datagen::{
    generate_corpus, generate_viznet, generate_wikitable, KbConfig, KnowledgeBase, VizNetConfig,
    WikiTableConfig,
};
use doduo_table::{Dataset, SerializeConfig};
use doduo_tensor::ParamStore;
use doduo_tokenizer::{Vocab, WordPiece};
use doduo_transformer::MlmConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod artifact;
pub mod report;
pub mod stages;

/// Experiment scale, selectable with `--scale`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The default: sized so each experiment finishes in minutes on a
    /// multi-core CPU while keeping the paper's qualitative shape.
    Full,
    /// A smoke-test scale for quick verification.
    Quick,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "quick" => Some(Scale::Quick),
            _ => None,
        }
    }
}

/// Command-line options shared by all experiment binaries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpOptions {
    pub scale: Scale,
    pub seed: u64,
    /// Disable the on-disk artifact cache.
    pub no_cache: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions { scale: Scale::Full, seed: 42, no_cache: false }
    }
}

/// Outcome of [`ExpOptions::parse`]: the caller distinguishes a usage
/// request from a malformed command line (different exit codes, same text).
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// `--help`/`-h` was passed.
    Help,
    /// A flag was unknown or had a bad value.
    Bad(String),
}

/// The flags every experiment binary shares, for a unified `--help`. The
/// one-line `about` comes from the binary; everything below it means the
/// same thing in every bin (including the `repro` harness, which forwards
/// these to the binaries it orchestrates).
pub fn shared_usage(bin: &str, about: &str) -> String {
    format!(
        "{bin} — {about}\n\
         \n\
         usage: {bin} [options]\n\
         \n\
         shared options (identical across all doduo-bench binaries):\n\
         \x20 --scale quick|full   experiment scale (default full; quick is the CI\n\
         \x20                      smoke scale — same shape, minutes not hours)\n\
         \x20 --seed N             world seed (default 42)\n\
         \x20 --no-cache           ignore and do not write target/doduo-cache/\n\
         \x20 --help, -h           this text"
    )
}

impl ExpOptions {
    /// Parses the shared flags (`--scale full|quick`, `--seed N`,
    /// `--no-cache`, `--help`) from an argument list (without `argv[0]`).
    pub fn parse(args: &[String]) -> Result<ExpOptions, ArgError> {
        let mut opts = ExpOptions::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    opts.scale = Scale::parse(args.get(i).map(String::as_str).unwrap_or(""))
                        .ok_or_else(|| ArgError::Bad("--scale must be full|quick".into()))?;
                }
                "--seed" => {
                    i += 1;
                    opts.seed = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| ArgError::Bad("--seed must be an integer".into()))?;
                }
                "--no-cache" => opts.no_cache = true,
                "--help" | "-h" => return Err(ArgError::Help),
                other => {
                    return Err(ArgError::Bad(format!(
                        "unknown argument {other} (expected --scale/--seed/--no-cache)"
                    )))
                }
            }
            i += 1;
        }
        Ok(opts)
    }

    /// Standard entry point for experiment binaries: parses
    /// `std::env::args()`, printing the unified usage text (with the bin's
    /// one-line `about`) on `--help` (exit 0) or a parse error (exit 2).
    pub fn from_args_for(about: &str) -> ExpOptions {
        let argv: Vec<String> = std::env::args().collect();
        let bin = argv
            .first()
            .map(|p| {
                std::path::Path::new(p)
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| p.clone())
            })
            .unwrap_or_else(|| "doduo-bench".into());
        match Self::parse(&argv[1..]) {
            Ok(opts) => opts,
            Err(ArgError::Help) => {
                println!("{}", shared_usage(&bin, about));
                std::process::exit(0)
            }
            Err(ArgError::Bad(msg)) => {
                eprintln!("{msg}\n\n{}", shared_usage(&bin, about));
                std::process::exit(2)
            }
        }
    }
}

/// The deterministic experiment world shared by all binaries.
pub struct World {
    pub opts: ExpOptions,
    pub kb: KnowledgeBase,
    pub lm: PretrainedLm,
    started: Instant,
}

/// Dataset splits used throughout.
pub struct Splits {
    pub train: Dataset,
    pub valid: Dataset,
    pub test: Dataset,
}

fn cache_dir() -> PathBuf {
    // target/ relative to the workspace root; fall back to CWD.
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = PathBuf::from(base).join("doduo-cache");
    std::fs::create_dir_all(&dir).expect("create cache dir");
    dir
}

impl World {
    /// Builds (or loads from cache) the knowledge base, pretraining corpus
    /// and pretrained LM.
    pub fn bootstrap(opts: ExpOptions) -> World {
        let started = Instant::now();
        let kb = KnowledgeBase::generate(&KbConfig::default(), opts.seed);
        let lm = load_or_pretrain(&kb, &opts);
        eprintln!(
            "[world] LM ready: vocab={}, elapsed {:?}",
            lm.tokenizer.vocab_size(),
            started.elapsed()
        );
        World { opts, kb, lm, started }
    }

    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// The WikiTable-style benchmark split 70/10/20 (train/valid/test).
    pub fn wikitable(&self) -> Splits {
        let cfg = match self.opts.scale {
            Scale::Full => {
                WikiTableConfig { n_tables: 240, min_rows: 2, max_rows: 3, seed: self.opts.seed }
            }
            Scale::Quick => {
                WikiTableConfig { n_tables: 160, min_rows: 2, max_rows: 3, seed: self.opts.seed }
            }
        };
        let ds = generate_wikitable(&self.kb, &cfg);
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(self.opts.seed ^ 0x517);
        let (train, valid, test) = ds.split(0.7, 0.1, &mut rng);
        Splits { train, valid, test }
    }

    /// The VizNet-style benchmark split 70/10/20.
    pub fn viznet(&self) -> Splits {
        let cfg = match self.opts.scale {
            Scale::Full => {
                VizNetConfig { n_tables: 900, seed: self.opts.seed, ..Default::default() }
            }
            Scale::Quick => {
                VizNetConfig { n_tables: 200, seed: self.opts.seed, ..Default::default() }
            }
        };
        let ds = generate_viznet(&self.kb, &cfg);
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(self.opts.seed ^ 0x91a);
        let (train, valid, test) = ds.split(0.7, 0.1, &mut rng);
        Splits { train, valid, test }
    }

    /// Default fine-tuning schedule for this scale.
    pub fn train_config(&self) -> TrainConfig {
        match self.opts.scale {
            Scale::Full => {
                TrainConfig { epochs: 40, batch_size: 12, lr: 2e-3, ..Default::default() }
            }
            Scale::Quick => {
                TrainConfig { epochs: 30, batch_size: 8, lr: 2e-3, ..Default::default() }
            }
        }
    }

    /// The configuration of a Doduo-family model over the pretrained
    /// encoder.
    fn finetune_config(
        &self,
        spec: &ModelSpec,
        n_types: usize,
        n_rels: usize,
        multi_label: bool,
    ) -> DoduoConfig {
        let enc = self.lm.config.clone();
        let mut ser = SerializeConfig::new(spec.max_tokens_per_col, enc.max_seq);
        if spec.metadata {
            ser = ser.with_metadata();
        }
        DoduoConfig::new(enc, n_types, n_rels, multi_label)
            .with_input_mode(spec.input_mode)
            .with_attention(spec.attention)
            .with_serialize(ser)
    }

    /// Trains (or loads from cache) a model variant and returns it together
    /// with its test predictions and scores — the one evaluation of the
    /// test split an experiment needs. A cached bundle is a hit only when
    /// it loads and describes this very model.
    pub fn trained_model(
        &self,
        name: &str,
        spec: &ModelSpec,
        splits: &Splits,
        tasks: &[Task],
        multi_label: bool,
        cfg: &TrainConfig,
    ) -> TrainedModel {
        let (type_vocab, rel_vocab) = (&splits.train.type_vocab, &splits.train.rel_vocab);
        let model_cfg =
            self.finetune_config(spec, type_vocab.len(), rel_vocab.len().max(1), multi_label);
        let key = format!(
            "{name}-h{}l{}-{:?}-{:?}-b{}-m{}-ml{}-t{:?}-e{}-lr{}-s{}-{:?}",
            self.lm.config.hidden,
            self.lm.config.layers,
            spec.input_mode,
            spec.attention,
            spec.max_tokens_per_col,
            spec.metadata,
            multi_label,
            tasks,
            cfg.epochs,
            cfg.lr,
            self.opts.seed,
            self.opts.scale,
        );
        let path = cache_dir().join(format!("{}.ckpt", sanitize(&key)));
        let tok = &self.lm.tokenizer;
        let cached = if self.opts.no_cache { None } else { AnnotatorBundle::load_from(&path).ok() };
        let (store, model) = match cached.filter(|b| *b.model.config() == model_cfg) {
            Some(bundle) => {
                eprintln!("[cache] loaded {name} from {}", path.display());
                (bundle.store, bundle.model)
            }
            None => {
                let seed = self.opts.seed ^ 0xf1e7;
                let (mut store, model) = build_finetune_model(&self.lm, |_| model_cfg, seed);
                let train_p = prepare(&model, &splits.train, tok);
                let valid_p = prepare(&model, &splits.valid, tok);
                let t = Instant::now();
                let report = train(&model, &mut store, &train_p, &valid_p, tasks, cfg);
                eprintln!(
                    "[train] {name}: best epoch {} (val {:.3}) in {:?}",
                    report.best_epoch,
                    report.best_score,
                    t.elapsed()
                );
                if self.opts.no_cache {
                    (store, model)
                } else {
                    let (tv, rv) = (type_vocab.clone(), rel_vocab.clone());
                    let bundle =
                        AnnotatorBundle::new(store, model, tok.clone(), tv, rv, ENC_PREFIX);
                    write_cache(&path, &bundle.save());
                    (bundle.store, bundle.model)
                }
            }
        };
        let test_p = prepare(&model, &splits.test, tok);
        let test = predict_tasks(&model, &store, &test_p, doduo_tensor::default_threads());
        TrainedModel { store, model, scores: test.scores(), types: test.types, rels: test.rels }
    }
}

/// Writes a cache entry through a temporary file and a rename, so a run
/// interrupted mid-write leaves the old entry or none, never a torn one.
fn write_cache(path: &Path, bytes: &[u8]) {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.tmp", std::process::id()));
    std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path)).expect("write cache");
}

/// A model-variant specification (the rows of the paper's tables).
#[derive(Clone, Debug)]
pub struct ModelSpec {
    pub input_mode: InputMode,
    pub attention: AttentionMode,
    pub max_tokens_per_col: usize,
    pub metadata: bool,
}

impl ModelSpec {
    /// Doduo's default configuration (table-wise, full attention, 32
    /// tokens/col as in Table 8's best row).
    pub fn doduo() -> ModelSpec {
        ModelSpec {
            input_mode: InputMode::TableWise,
            attention: AttentionMode::Full,
            max_tokens_per_col: 32,
            metadata: false,
        }
    }

    /// TURL reproduction: restricted attention via the visibility matrix.
    pub fn turl() -> ModelSpec {
        ModelSpec { attention: AttentionMode::ColumnVisibility, ..ModelSpec::doduo() }
    }

    /// Single-column ablation (DosoloSCol).
    pub fn single_column() -> ModelSpec {
        ModelSpec { input_mode: InputMode::SingleColumn, ..ModelSpec::doduo() }
    }

    pub fn with_metadata(mut self) -> ModelSpec {
        self.metadata = true;
        self
    }

    pub fn with_budget(mut self, budget: usize) -> ModelSpec {
        self.max_tokens_per_col = budget;
        self
    }
}

/// A trained variant plus its test-split predictions and their scores.
pub struct TrainedModel {
    pub store: ParamStore,
    pub model: DoduoModel,
    pub scores: EvalScores,
    /// Column-type predictions on the test split.
    pub types: Predictions,
    /// Relation predictions on the test split, when it has relations.
    pub rels: Option<Predictions>,
}

fn sanitize(key: &str) -> String {
    key.chars().map(|c| if c.is_alphanumeric() || c == '-' || c == '.' { c } else { '_' }).collect()
}

/// Trains the Sherlock baseline on a split and returns its test predictions
/// (label sets per column) together with gold labels.
pub fn run_sherlock(
    splits: &Splits,
    multi_label: bool,
    scale: Scale,
    seed: u64,
) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    use doduo_baselines::{featurize, Sherlock, SherlockConfig};
    let cfg = SherlockConfig {
        epochs: if scale == Scale::Full { 80 } else { 30 },
        multi_label,
        seed,
        ..Default::default()
    };
    let mut store = ParamStore::new();
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
    let model = Sherlock::new(&mut store, splits.train.type_vocab.len(), cfg, &mut rng);
    let train_ex = featurize(&splits.train);
    model.train(&mut store, &train_ex);
    let test_ex = featurize(&splits.test);
    let pred = model.predict(&store, &test_ex);
    let gold: Vec<Vec<u32>> = test_ex.iter().map(|e| e.gold.clone()).collect();
    (pred, gold)
}

/// Applies row / column shuffling to every table of a dataset (Table 6).
pub fn shuffled_dataset(ds: &Dataset, rows: bool, cols: bool, seed: u64) -> Dataset {
    let mut out = ds.clone();
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
    for t in &mut out.tables {
        if rows {
            t.shuffle_rows(&mut rng);
        }
        if cols {
            t.shuffle_cols(&mut rng);
        }
    }
    out
}

// -------------------------------------------------------- LM caching

fn lm_cache_paths(opts: &ExpOptions) -> (PathBuf, PathBuf) {
    let dir = cache_dir();
    let stem = format!("lm-v6-{:?}-{}", opts.scale, opts.seed);
    (dir.join(format!("{stem}.ckpt")), dir.join(format!("{stem}.vocab")))
}

fn pretrain_recipe(scale: Scale) -> PretrainRecipe {
    match scale {
        Scale::Full => PretrainRecipe {
            mlm: MlmConfig { epochs: 12, ..Default::default() },
            ..Default::default()
        },
        Scale::Quick => {
            let mut r = PretrainRecipe::default();
            r.mlm.epochs = 6;
            r
        }
    }
}

/// The LM a cache entry holds, `recipe`'s encoder over the cached
/// vocabulary, or `None` — a miss — unless the vocabulary parses and the
/// weights build that encoder and its MLM head exactly.
fn cached_lm(recipe: &PretrainRecipe, weights: Vec<u8>, vocab_text: &str) -> Option<PretrainedLm> {
    let vocab = Vocab::from_text(vocab_text)?;
    let lm = PretrainedLm {
        config: recipe.encoder_config(vocab.len()),
        tokenizer: WordPiece::from_vocab(vocab, recipe.tokenizer.max_word_len),
        weights,
        losses: Vec::new(),
    };
    instantiate_lm(&lm).is_ok().then_some(lm)
}

fn load_or_pretrain(kb: &KnowledgeBase, opts: &ExpOptions) -> PretrainedLm {
    let (ckpt, vocab_path) = lm_cache_paths(opts);
    let recipe = pretrain_recipe(opts.scale);
    if !opts.no_cache {
        if let (Ok(weights), Ok(vocab_text)) =
            (std::fs::read(&ckpt), std::fs::read_to_string(&vocab_path))
        {
            if let Some(lm) = cached_lm(&recipe, weights, &vocab_text) {
                eprintln!("[cache] pretrained LM loaded from {}", ckpt.display());
                return lm;
            }
        }
    }
    let t = Instant::now();
    let corpus = generate_corpus(kb, opts.seed);
    let corpus = match opts.scale {
        Scale::Full => corpus,
        Scale::Quick => corpus.into_iter().take(4000).collect(),
    };
    let lm = pretrain_lm(&corpus, &recipe, opts.seed);
    eprintln!("[pretrain] {} sentences, losses {:?} in {:?}", corpus.len(), lm.losses, t.elapsed());
    if !opts.no_cache {
        write_cache(&vocab_path, lm.tokenizer.vocab().to_text().as_bytes());
        write_cache(&ckpt, &lm.weights);
    }
    lm
}

#[cfg(test)]
mod tests {
    use super::*;
    use doduo_datagen::{generate_wikitable, KbConfig, KnowledgeBase, WikiTableConfig};

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("medium"), None);
    }

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn shared_args_parse() {
        let o = ExpOptions::parse(&args(&["--scale", "quick", "--seed", "7", "--no-cache"]))
            .expect("valid args");
        assert_eq!(o.scale, Scale::Quick);
        assert_eq!(o.seed, 7);
        assert!(o.no_cache);
        let d = ExpOptions::parse(&[]).expect("empty args are the defaults");
        assert_eq!(d.scale, Scale::Full);
        assert_eq!(d.seed, 42);
        assert!(!d.no_cache);
    }

    #[test]
    fn bad_shared_args_are_errors_not_panics() {
        assert!(matches!(
            ExpOptions::parse(&args(&["--scale", "medium"])),
            Err(ArgError::Bad(m)) if m.contains("--scale")
        ));
        assert!(matches!(
            ExpOptions::parse(&args(&["--seed", "many"])),
            Err(ArgError::Bad(m)) if m.contains("--seed")
        ));
        assert!(matches!(
            ExpOptions::parse(&args(&["--frobnicate"])),
            Err(ArgError::Bad(m)) if m.contains("--frobnicate")
        ));
        assert_eq!(ExpOptions::parse(&args(&["--help"])), Err(ArgError::Help));
        assert_eq!(ExpOptions::parse(&args(&["-h"])), Err(ArgError::Help));
    }

    #[test]
    fn usage_text_names_the_shared_flags() {
        let u = shared_usage("table3", "WikiTable micro-F1");
        for needle in ["table3", "WikiTable micro-F1", "--scale quick|full", "--seed", "--no-cache"]
        {
            assert!(u.contains(needle), "usage must mention {needle}");
        }
    }

    #[test]
    fn model_specs_encode_paper_variants() {
        let doduo = ModelSpec::doduo();
        assert_eq!(doduo.input_mode, InputMode::TableWise);
        assert_eq!(doduo.attention, AttentionMode::Full);
        assert!(!doduo.metadata);
        let turl = ModelSpec::turl();
        assert_eq!(turl.attention, AttentionMode::ColumnVisibility);
        let scol = ModelSpec::single_column();
        assert_eq!(scol.input_mode, InputMode::SingleColumn);
        let meta = ModelSpec::doduo().with_metadata();
        assert!(meta.metadata);
        assert_eq!(ModelSpec::doduo().with_budget(8).max_tokens_per_col, 8);
    }

    #[test]
    fn sanitize_makes_safe_filenames() {
        let s = sanitize("wiki-doduo-TableWise-b32 (ml=true)/seed:42");
        assert!(s.chars().all(|c| c.is_alphanumeric() || c == '-' || c == '.' || c == '_'));
    }

    #[test]
    fn shuffled_dataset_preserves_annotations() {
        let kb = KnowledgeBase::generate(&KbConfig::default(), 1);
        let ds = generate_wikitable(&kb, &WikiTableConfig { n_tables: 20, ..Default::default() });
        let rows = shuffled_dataset(&ds, true, false, 7);
        rows.validate().expect("row-shuffled dataset stays valid");
        let cols = shuffled_dataset(&ds, false, true, 7);
        cols.validate().expect("col-shuffled dataset stays valid");
        // Row shuffling keeps annotations identical.
        for (a, b) in ds.tables.iter().zip(rows.tables.iter()) {
            assert_eq!(a.col_types, b.col_types);
        }
        // Column shuffling must actually permute at least one table.
        let changed =
            ds.tables.iter().zip(cols.tables.iter()).any(|(a, b)| a.col_types != b.col_types);
        assert!(changed);
    }

    #[test]
    fn a_torn_lm_cache_entry_is_a_miss() {
        let recipe = PretrainRecipe {
            mlm: MlmConfig { epochs: 1, ..Default::default() },
            ..PretrainRecipe::tiny()
        };
        let corpus: Vec<String> =
            ["paris is a city", "rome is a city", "nile is a river"].map(String::from).into();
        let lm = pretrain_lm(&corpus, &recipe, 3);
        let vocab = lm.tokenizer.vocab().to_text();
        let hit = cached_lm(&recipe, lm.weights.clone(), &vocab).expect("a whole entry hits");
        assert_eq!((&hit.config, &hit.weights), (&lm.config, &lm.weights));
        assert_eq!(hit.tokenizer.max_word_len(), recipe.tokenizer.max_word_len);
        let torn = lm.weights[..lm.weights.len() / 2].to_vec();
        assert!(cached_lm(&recipe, torn, &vocab).is_none(), "a truncated blob is a miss");
        let wider = PretrainRecipe { hidden: 2 * recipe.hidden, ..recipe.clone() };
        assert!(cached_lm(&wider, lm.weights.clone(), &vocab).is_none(), "another recipe's LM");
        assert!(cached_lm(&recipe, lm.weights.clone(), "").is_none(), "no vocabulary");
    }
}
