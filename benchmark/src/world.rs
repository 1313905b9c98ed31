//! The generator: builds the seeded world a workload runs on and writes it
//! to disk, so that the system under test receives only a checkpoint file
//! and input files, never the seed.
//!
//! The recipe follows `doduo_served::bootstrap::synthetic_world` (seeded
//! knowledge base → WikiTable-style corpus → WordPiece → paper-shaped `mini`
//! encoder with random weights — annotation cost does not depend on
//! training state), then reshapes the corpus' cells into the table shapes
//! each workload is defined by.

use doduo_core::{AnnotatorBundle, DoduoConfig, DoduoModel};
use doduo_datagen::{generate_wikitable, KbConfig, KnowledgeBase, WikiTableConfig};
use doduo_served::json::{table_from_json, table_to_json, Json};
use doduo_table::{
    AnnotatedTable, Column, Dataset, LabelVocab, RelAnnotation, SerializeConfig, Table,
};
use doduo_tensor::{ParamStore, Tensor};
use doduo_tokenizer::{TrainConfig as TokTrain, WordPiece};
use doduo_transformer::EncoderConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};

/// Tokens each column may use (the paper's default budget); with the mini
/// encoder's `max_seq` of 192 this fits at most five columns per table.
pub const TOKENS_PER_COL: usize = 32;

/// Distinct tables of the wide bulk workloads: 1,024 x 5 columns exceeds
/// the engine's 4,096-column token cache, so cycling through them in order
/// never hits it.
pub const WIDE_TABLES: usize = 1024;
pub const WIDE_COLS: usize = 5;
/// Distinct tables of the narrow bulk workload: 256 x 2 columns stay
/// resident in the token cache, so after the warm-up every lookup hits.
pub const NARROW_TABLES: usize = 256;
pub const NARROW_COLS: usize = 2;
/// The paper's "8 tokens per column" operating point.
pub const NARROW_TOKENS_PER_COL: usize = 8;
/// Distinct tables of the two daemon workloads.
pub const MIX_TABLES: usize = 2048;
/// Labelled tables one fine-tuning call trains on, and validates on.
pub const FINETUNE_TRAIN: usize = 64;
pub const FINETUNE_VALID: usize = 16;
/// Shape of every labelled table: the corpus' most common column count, and
/// a token count per column that puts a training sequence (52 tokens) near
/// the corpus' mean.
pub const FINETUNE_COLS: usize = 3;
pub const FINETUNE_TOKENS_PER_COL: usize = 16;

/// Initial value of both heads' output biases. A trained multi-label model
/// commits to one or two labels per column; random weights would put every
/// sigmoid at 0.5 and every second label into each response. A negative
/// bias restores trained-model response sizes (the argmax plus context).
const OUTPUT_BIAS: f32 = -3.0;

/// The input sets a workload can ask for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inputs {
    Wide,
    Narrow,
    Mix,
    Finetune,
}

impl Inputs {
    pub fn file(self) -> &'static str {
        match self {
            Inputs::Wide => "wide.ndjson",
            Inputs::Narrow => "narrow.ndjson",
            Inputs::Mix => "mix.ndjson",
            Inputs::Finetune => "finetune.ndjson",
        }
    }
}

pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// A cell of the corpus with its token count under the world's tokenizer.
struct Cell {
    text: String,
    tokens: usize,
}

/// Builds the world for `seed` and writes the checkpoint and the one input
/// set `inputs` into `dir`.
pub fn generate(seed: u64, dir: &Path, inputs: Inputs) -> io::Result<()> {
    let kb = KnowledgeBase::generate(&KbConfig::default(), seed);
    let ds =
        generate_wikitable(&kb, &WikiTableConfig { n_tables: 256, min_rows: 4, max_rows: 8, seed });
    let corpus: Vec<&str> = ds
        .tables
        .iter()
        .flat_map(|t| t.table.columns.iter())
        .flat_map(|c| c.values.iter().map(String::as_str))
        .collect();
    let tokenizer = WordPiece::train(
        corpus.iter().copied(),
        &TokTrain { merges: 400, min_pair_count: 2, max_word_len: 24 },
    );
    let mut seen = HashSet::new();
    let cells: Vec<Cell> = corpus
        .iter()
        .filter(|c| seen.insert(**c))
        .map(|c| Cell { text: c.to_string(), tokens: tokenizer.encode(c).len() })
        .filter(|c| c.tokens > 0)
        .collect();

    let bundle = build_bundle(seed, tokenizer, ds.type_vocab.clone(), ds.rel_vocab.clone());
    bundle.save_to(dir.join(CHECKPOINT_FILE))?;

    let mut rng = StdRng::seed_from_u64(seed ^ 0xD0D0_0B3C);
    let lines: Vec<String> = match inputs {
        Inputs::Wide => wide_tables(&cells, &mut rng).iter().map(table_to_json).collect(),
        Inputs::Narrow => narrow_tables(&cells, &mut rng).iter().map(table_to_json).collect(),
        Inputs::Mix => mix_tables(&cells, &mut rng).iter().map(table_to_json).collect(),
        Inputs::Finetune => {
            finetune_tables(&ds.tables, &cells, &mut rng).iter().map(annotated_to_json).collect()
        }
    };
    std::fs::write(dir.join(inputs.file()), lines.join("\n") + "\n")
}

fn build_bundle(
    seed: u64,
    tokenizer: WordPiece,
    type_vocab: LabelVocab,
    rel_vocab: LabelVocab,
) -> AnnotatorBundle {
    let enc = EncoderConfig::mini(tokenizer.vocab_size());
    let max_seq = enc.max_seq;
    let cfg = DoduoConfig::new(enc, type_vocab.len(), rel_vocab.len().max(1), true)
        .with_serialize(SerializeConfig::new(TOKENS_PER_COL, max_seq));
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = DoduoModel::new(&mut store, cfg, "m", &mut rng);
    for name in ["m.type.out.b", "m.rel.out.b"] {
        let id = store.find(name).expect("head bias registered under the model prefix");
        let (r, c) = store.get(id).shape();
        store.set_value(id, Tensor::full(r, c, OUTPUT_BIAS));
    }
    AnnotatorBundle::new(store, model, tokenizer, type_vocab, rel_vocab, "m")
}

fn pick<'a>(cells: &'a [Cell], rng: &mut StdRng) -> &'a Cell {
    &cells[rng.gen_range(0..cells.len())]
}

/// A column whose cells fill the per-column token budget and no more rows
/// than that takes, so every wide sequence has the same length.
fn full_column(cells: &[Cell], rng: &mut StdRng) -> Vec<String> {
    let mut values = Vec::new();
    let mut tokens = 0;
    while tokens < TOKENS_PER_COL {
        let c = pick(cells, rng);
        tokens += c.tokens;
        values.push(c.text.clone());
    }
    values
}

/// A column of exactly `target` tokens (retrying draws that overshoot).
fn exact_column(cells: &[Cell], target: usize, rng: &mut StdRng) -> Vec<String> {
    loop {
        let mut values = Vec::new();
        let mut tokens = 0;
        for _ in 0..64 {
            let c = pick(cells, rng);
            if tokens + c.tokens <= target {
                tokens += c.tokens;
                values.push(c.text.clone());
            }
            if tokens == target {
                return values;
            }
        }
    }
}

/// `n` tables of `cols` columns each, no column repeated anywhere (a
/// repeated column would be a token-cache hit the workload must not have).
fn distinct_tables(
    prefix: &str,
    n: usize,
    cols: usize,
    mut column: impl FnMut() -> Vec<String>,
) -> Vec<Table> {
    let mut seen: HashSet<Vec<String>> = HashSet::new();
    (0..n)
        .map(|i| {
            let columns = (0..cols)
                .map(|_| loop {
                    let values = column();
                    if seen.insert(values.clone()) {
                        break Column::new(values);
                    }
                })
                .collect();
            Table::new(format!("{prefix}-{i}"), columns)
        })
        .collect()
}

fn wide_tables(cells: &[Cell], rng: &mut StdRng) -> Vec<Table> {
    distinct_tables("wide", WIDE_TABLES, WIDE_COLS, || full_column(cells, rng))
}

fn narrow_tables(cells: &[Cell], rng: &mut StdRng) -> Vec<Table> {
    distinct_tables("narrow", NARROW_TABLES, NARROW_COLS, || {
        exact_column(cells, NARROW_TOKENS_PER_COL, rng)
    })
}

/// The serving mix: every shape of 1-5 columns x 4-8 rows equally often
/// (dealt round-robin, then shuffled, so the mix does not depend on the
/// luck of the draw), cells drawn at random.
fn mix_tables(cells: &[Cell], rng: &mut StdRng) -> Vec<Table> {
    let mut tables: Vec<Table> = (0..MIX_TABLES)
        .map(|i| {
            let (cols, rows) = (1 + i % 5, 4 + (i / 5) % 5);
            let columns = (0..cols)
                .map(|_| Column::new((0..rows).map(|_| pick(cells, rng).text.clone()).collect()))
                .collect();
            Table::new(format!("mix-{i}"), columns)
        })
        .collect();
    for i in (1..tables.len()).rev() {
        tables.swap(i, rng.gen_range(0..=i));
    }
    tables
}

/// The labelled set: the corpus' first tables of [`FINETUNE_COLS`] columns,
/// labels kept, every column refilled to exactly
/// [`FINETUNE_TOKENS_PER_COL`] tokens, so that a training call is the same
/// amount of work whatever the seed (training cost does not depend on
/// whether labels and cells agree).
fn finetune_tables(
    corpus: &[AnnotatedTable],
    cells: &[Cell],
    rng: &mut StdRng,
) -> Vec<AnnotatedTable> {
    corpus
        .iter()
        .filter(|t| t.table.n_cols() == FINETUNE_COLS)
        .take(FINETUNE_TRAIN + FINETUNE_VALID)
        .map(|t| {
            let columns = (0..FINETUNE_COLS)
                .map(|_| Column::new(exact_column(cells, FINETUNE_TOKENS_PER_COL, rng)))
                .collect();
            AnnotatedTable { table: Table::new(t.table.id.clone(), columns), ..t.clone() }
        })
        .collect()
}

fn annotated_to_json(t: &AnnotatedTable) -> String {
    let types = t
        .col_types
        .iter()
        .map(|ls| format!("[{}]", ls.iter().map(u32::to_string).collect::<Vec<_>>().join(",")))
        .collect::<Vec<_>>()
        .join(",");
    let rels = t
        .relations
        .iter()
        .map(|r| format!("[{},{},{}]", r.subject_col, r.object_col, r.relation))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"table\":{},\"col_types\":[{types}],\"relations\":[{rels}]}}",
        table_to_json(&t.table)
    )
}

fn bad(path: &Path, line: usize, what: impl std::fmt::Display) -> io::Error {
    io::Error::other(format!("{}:{}: {what}", path.display(), line + 1))
}

/// Reads a table input set: each line is both a `POST /v1/annotate` body
/// and, decoded, the table an in-process workload passes to the engine.
pub fn read_tables(dir: &Path, inputs: Inputs) -> io::Result<Vec<(String, Table)>> {
    let path: PathBuf = dir.join(inputs.file());
    std::fs::read_to_string(&path)?
        .lines()
        .enumerate()
        .map(|(i, line)| {
            let v = Json::parse(line).map_err(|e| bad(&path, i, e))?;
            let table = table_from_json(&v).map_err(|e| bad(&path, i, e))?;
            Ok((line.to_string(), table))
        })
        .collect()
}

/// Reads the labelled set and splits it into the training and validation
/// datasets, with the label vocabularies of the checkpoint it goes with.
pub fn read_finetune(dir: &Path, bundle: &AnnotatorBundle) -> io::Result<(Dataset, Dataset)> {
    let path = dir.join(Inputs::Finetune.file());
    let mut tables = Vec::new();
    for (i, line) in std::fs::read_to_string(&path)?.lines().enumerate() {
        let v = Json::parse(line).map_err(|e| bad(&path, i, e))?;
        let field = |k: &str| v.get(k).ok_or_else(|| bad(&path, i, format!("no \"{k}\"")));
        let ids = |j: &Json| -> Option<Vec<usize>> {
            j.as_array()?.iter().map(|x| x.as_f64().map(|f| f as usize)).collect()
        };
        let table = table_from_json(field("table")?).map_err(|e| bad(&path, i, e))?;
        let col_types = field("col_types")?
            .as_array()
            .and_then(|a| {
                a.iter()
                    .map(|ls| Some(ids(ls)?.into_iter().map(|l| l as u32).collect()))
                    .collect::<Option<Vec<Vec<u32>>>>()
            })
            .ok_or_else(|| bad(&path, i, "bad col_types"))?;
        let relations = field("relations")?
            .as_array()
            .and_then(|a| {
                a.iter()
                    .map(|r| match ids(r)?.as_slice() {
                        &[subject_col, object_col, relation] => Some(RelAnnotation {
                            subject_col,
                            object_col,
                            relation: relation as u32,
                        }),
                        _ => None,
                    })
                    .collect::<Option<Vec<_>>>()
            })
            .ok_or_else(|| bad(&path, i, "bad relations"))?;
        let t = AnnotatedTable { table, col_types, relations };
        t.validate().map_err(|e| bad(&path, i, e))?;
        tables.push(t);
    }
    if tables.len() != FINETUNE_TRAIN + FINETUNE_VALID {
        return Err(bad(&path, tables.len(), "unexpected number of labelled tables"));
    }
    let valid = tables.split_off(FINETUNE_TRAIN);
    let ds = |tables| Dataset {
        tables,
        type_vocab: bundle.type_vocab.clone(),
        rel_vocab: bundle.rel_vocab.clone(),
    };
    Ok((ds(tables), ds(valid)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let d = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("tmp-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("temp dir");
        d
    }

    #[test]
    fn same_seed_same_files_and_shapes_hold() {
        let (a, b) = (tmp("world-a"), tmp("world-b"));
        generate(11, &a, Inputs::Narrow).expect("generate");
        generate(11, &b, Inputs::Narrow).expect("generate");
        for f in [CHECKPOINT_FILE, Inputs::Narrow.file()] {
            assert_eq!(std::fs::read(a.join(f)).unwrap(), std::fs::read(b.join(f)).unwrap(), "{f}");
        }
        let bundle = AnnotatorBundle::load_from(a.join(CHECKPOINT_FILE)).expect("loads");
        let tables = read_tables(&a, Inputs::Narrow).expect("reads");
        assert_eq!(tables.len(), NARROW_TABLES);
        for (_, t) in &tables {
            assert_eq!(t.n_cols(), NARROW_COLS);
            let st = bundle.model.serialize_for_types(t, &bundle.tokenizer).remove(0);
            assert_eq!(st.len(), NARROW_COLS * (1 + NARROW_TOKENS_PER_COL) + 1);
        }
        for d in [a, b] {
            std::fs::remove_dir_all(d).ok();
        }
    }

    #[test]
    fn labelled_set_round_trips() {
        let d = tmp("world-ft");
        generate(5, &d, Inputs::Finetune).expect("generate");
        let bundle = AnnotatorBundle::load_from(d.join(CHECKPOINT_FILE)).expect("loads");
        let (train, valid) = read_finetune(&d, &bundle).expect("reads");
        assert_eq!((train.tables.len(), valid.tables.len()), (FINETUNE_TRAIN, FINETUNE_VALID));
        train.validate().expect("labels within the checkpoint's vocabularies");
        assert!(train.n_relations() > 0);
        // Every training sequence has the same length, whatever the seed.
        for t in train.tables.iter().chain(&valid.tables) {
            let st = bundle.model.serialize_for_types(&t.table, &bundle.tokenizer).remove(0);
            assert_eq!(st.len(), FINETUNE_COLS * (1 + FINETUNE_TOKENS_PER_COL) + 1);
        }
        std::fs::remove_dir_all(d).ok();
    }
}
