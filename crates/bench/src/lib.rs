//! Shared experiment harness for the per-table / per-figure binaries.
//!
//! Every binary follows the same recipe: build the deterministic world
//! (knowledge base → corpus → pretrained LM → benchmark datasets), train the
//! models its table needs, and print the paper's numbers next to the
//! measured ones. Expensive artifacts (the pretrained LM, fine-tuned model
//! weights) are cached under `target/doduo-cache/` keyed by configuration,
//! so binaries that share a model (e.g. default Doduo on WikiTable) train it
//! once.
//!
//! Run e.g. `cargo run --release -p doduo-bench --bin table3 -- --scale quick`.

use doduo_core::{
    build_finetune_model, evaluate, prepare, pretrain_lm, train, AttentionMode, DoduoConfig,
    DoduoModel, EvalScores, InputMode, PretrainRecipe, PretrainedLm, Task, TrainConfig,
};
use doduo_datagen::{
    generate_corpus, generate_viznet, generate_wikitable, CorpusConfig, KbConfig, KnowledgeBase,
    VizNetConfig, WikiTableConfig,
};
use doduo_table::{Dataset, SerializeConfig};
use doduo_tensor::serialize;
use doduo_tensor::ParamStore;
use doduo_tokenizer::{Vocab, WordPiece};
use doduo_transformer::{EncoderConfig, MlmConfig};
use std::io::Write as _;
use std::path::PathBuf;
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

    /// Builds a Doduo-family model over the pretrained encoder.
    pub fn model(
        &self,
        spec: &ModelSpec,
        n_types: usize,
        n_rels: usize,
        multi_label: bool,
    ) -> (ParamStore, DoduoModel) {
        build_finetune_model(
            &self.lm,
            |enc| {
                let max_seq = enc.max_seq;
                let mut ser = SerializeConfig::new(spec.max_tokens_per_col, max_seq);
                if spec.metadata {
                    ser = ser.with_metadata();
                }
                DoduoConfig::new(enc, n_types, n_rels, multi_label)
                    .with_input_mode(spec.input_mode)
                    .with_attention(spec.attention)
                    .with_serialize(ser)
            },
            self.opts.seed ^ 0xf1e7,
        )
    }

    /// Trains (or loads from cache) a model variant and returns it together
    /// with its test scores.
    pub fn trained_model(
        &self,
        name: &str,
        spec: &ModelSpec,
        splits: &Splits,
        tasks: &[Task],
        multi_label: bool,
        cfg: &TrainConfig,
    ) -> TrainedModel {
        let n_types = splits.train.type_vocab.len();
        let n_rels = splits.train.rel_vocab.len().max(1);
        let (mut store, model) = self.model(spec, n_types, n_rels, multi_label);
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
        let train_p = prepare(&model, &splits.train, tok);
        let valid_p = prepare(&model, &splits.valid, tok);
        let cached = if self.opts.no_cache {
            None
        } else {
            std::fs::read(&path).ok().and_then(|blob| restore(&store, &blob))
        };
        if let Some(restored) = cached {
            store = restored;
            eprintln!("[cache] loaded {name} from {}", path.display());
        } else {
            let t = Instant::now();
            let report = train(&model, &mut store, &train_p, &valid_p, tasks, cfg);
            eprintln!(
                "[train] {name}: best epoch {} (val {:.3}) in {:?}",
                report.best_epoch,
                report.best_score,
                t.elapsed()
            );
            if !self.opts.no_cache {
                let blob = serialize::save(&store);
                let mut f = std::fs::File::create(&path).expect("write cache");
                f.write_all(&blob).expect("write cache");
            }
        }
        let test_p = prepare(&model, &splits.test, tok);
        let scores = evaluate(&model, &store, &test_p, doduo_tensor::default_threads());
        TrainedModel { store, model, scores }
    }
}

/// `store` with every parameter restored from a cached checkpoint `blob`,
/// or `None` — a miss — unless the blob sets each of them from a record of
/// its shape and holds no other record. The restore runs on a copy, so a
/// miss leaves `store` as it was built, ready to train from.
fn restore(store: &ParamStore, blob: &[u8]) -> Option<ParamStore> {
    let mut copy = store.clone();
    match serialize::load(&mut copy, blob) {
        Ok(loaded) if loaded == store.len() => Some(copy),
        _ => None,
    }
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

/// A trained variant plus its held-out scores.
pub struct TrainedModel {
    pub store: ParamStore,
    pub model: DoduoModel,
    pub scores: EvalScores,
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

fn lm_cache_paths(opts: &ExpOptions) -> (PathBuf, PathBuf, PathBuf) {
    let dir = cache_dir();
    let stem = format!("lm-v6-{:?}-{}", opts.scale, opts.seed);
    (
        dir.join(format!("{stem}.ckpt")),
        dir.join(format!("{stem}.vocab")),
        dir.join(format!("{stem}.cfg")),
    )
}

fn encoder_cfg_to_text(c: &EncoderConfig) -> String {
    format!(
        "{} {} {} {} {} {} {}",
        c.vocab_size, c.hidden, c.layers, c.heads, c.ffn, c.max_seq, c.dropout
    )
}

fn encoder_cfg_from_text(s: &str) -> Option<EncoderConfig> {
    let parts: Vec<&str> = s.split_whitespace().collect();
    if parts.len() != 7 {
        return None;
    }
    Some(EncoderConfig {
        vocab_size: parts[0].parse().ok()?,
        hidden: parts[1].parse().ok()?,
        layers: parts[2].parse().ok()?,
        heads: parts[3].parse().ok()?,
        ffn: parts[4].parse().ok()?,
        max_seq: parts[5].parse().ok()?,
        dropout: parts[6].parse().ok()?,
    })
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

fn load_or_pretrain(kb: &KnowledgeBase, opts: &ExpOptions) -> PretrainedLm {
    let (ckpt, vocab_path, cfg_path) = lm_cache_paths(opts);
    if !opts.no_cache {
        if let (Ok(weights), Ok(vocab_text), Ok(cfg_text)) = (
            std::fs::read(&ckpt),
            std::fs::read_to_string(&vocab_path),
            std::fs::read_to_string(&cfg_path),
        ) {
            if let (Some(vocab), Some(config)) =
                (Vocab::from_text(&vocab_text), encoder_cfg_from_text(&cfg_text))
            {
                eprintln!("[cache] pretrained LM loaded from {}", ckpt.display());
                return PretrainedLm {
                    tokenizer: WordPiece::from_vocab(vocab, 48),
                    config,
                    weights: bytes::Bytes::from(weights),
                    losses: Vec::new(),
                };
            }
        }
    }
    let t = Instant::now();
    let corpus = generate_corpus(kb, &CorpusConfig { seed: opts.seed, ..Default::default() });
    let corpus = match opts.scale {
        Scale::Full => corpus,
        Scale::Quick => corpus.into_iter().take(4000).collect(),
    };
    let recipe = pretrain_recipe(opts.scale);
    let lm = pretrain_lm(&corpus, &recipe, opts.seed);
    eprintln!("[pretrain] {} sentences, losses {:?} in {:?}", corpus.len(), lm.losses, t.elapsed());
    if !opts.no_cache {
        std::fs::write(&ckpt, &lm.weights).expect("cache LM weights");
        std::fs::write(&vocab_path, lm.tokenizer.vocab().to_text()).expect("cache vocab");
        std::fs::write(&cfg_path, encoder_cfg_to_text(&lm.config)).expect("cache cfg");
    }
    lm
}

#[cfg(test)]
mod tests {
    use super::*;
    use doduo_datagen::{generate_wikitable, KbConfig, KnowledgeBase, WikiTableConfig};
    use doduo_tensor::Tensor;

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

    /// A fresh two-parameter store, `a` then `b`.
    fn cache_store(a: f32, b_cols: usize) -> ParamStore {
        let mut store = ParamStore::new();
        store.add("a", Tensor::full(2, 3, a));
        store.add("b", Tensor::full(1, b_cols, 2.0));
        store
    }

    #[test]
    fn cache_restore_is_all_or_nothing_on_a_late_shape_mismatch() {
        // `a`'s record fits and comes first; `b`'s is mis-shaped: a miss,
        // and the fresh store keeps every value it was built with.
        let store = cache_store(1.0, 3);
        let a = store.find("a").expect("a");
        assert!(restore(&store, &serialize::save(&cache_store(9.0, 4))).is_none());
        assert_eq!(store.get(a), &Tensor::full(2, 3, 1.0));
        let restored = restore(&store, &serialize::save(&cache_store(9.0, 3)));
        assert_eq!(restored.expect("a full blob restores").get(a), &Tensor::full(2, 3, 9.0));
    }

    #[test]
    fn cache_restore_misses_on_a_blob_without_every_parameter() {
        let store = cache_store(1.0, 3);
        let blob = serialize::save_filtered(&store, |n| n == "a");
        assert!(restore(&store, &blob).is_none(), "`b` would keep its fresh value");
    }

    #[test]
    fn encoder_cfg_text_roundtrip() {
        let cfg = EncoderConfig::mini(1234);
        let text = encoder_cfg_to_text(&cfg);
        assert_eq!(encoder_cfg_from_text(&text), Some(cfg));
        assert_eq!(encoder_cfg_from_text("1 2 3"), None);
    }
}
