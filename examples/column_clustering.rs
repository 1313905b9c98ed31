//! The §7 case study as a runnable example: cluster semantically similar
//! columns of an enterprise HR database using Doduo's contextualized column
//! embeddings, and compare against a fastText-style static-embedding
//! baseline.
//!
//! Note the domain transfer: the Doduo model is fine-tuned on *WikiTable*
//! data and applied, unchanged, to jobsearch/review tables it has never
//! seen — exactly the scenario of the paper's data scientist "Sofia".
//!
//! Run with: `cargo run --release --example column_clustering`

use doduo_baselines::{FastText, FastTextConfig};
use doduo_core::{
    build_finetune_model, prepare, pretrain_lm, train, Annotator, DoduoConfig, PretrainRecipe,
    Task, TrainConfig,
};
use doduo_datagen::{
    generate_case_study, generate_corpus, generate_wikitable, KbConfig, KnowledgeBase,
    WikiTableConfig, ALL_CLUSTERS,
};
use doduo_eval::{completeness, homogeneity, kmeans, v_measure};
use doduo_table::SerializeConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let seed = 42;
    let kb = KnowledgeBase::generate(&KbConfig::default(), seed);
    let corpus = generate_corpus(&kb, seed);

    // Train Doduo on WikiTable (out-of-domain for the HR data).
    println!("[1/3] pretraining LM + fine-tuning Doduo on WikiTable…");
    let mut recipe = PretrainRecipe::tiny();
    recipe.mlm.epochs = 12;
    let lm = pretrain_lm(&corpus, &recipe, seed);
    let ds = generate_wikitable(&kb, &WikiTableConfig { n_tables: 250, ..Default::default() });
    let mut rng = StdRng::seed_from_u64(seed);
    let (train_ds, valid_ds, _) = ds.split(0.85, 0.15, &mut rng);
    let (mut store, model) = build_finetune_model(
        &lm,
        |enc| {
            let max_seq = enc.max_seq;
            DoduoConfig::new(enc, train_ds.type_vocab.len(), train_ds.rel_vocab.len(), true)
                .with_serialize(SerializeConfig::new(8, max_seq))
        },
        seed,
    );
    let train_p = prepare(&model, &train_ds, &lm.tokenizer);
    let valid_p = prepare(&model, &valid_ds, &lm.tokenizer);
    train(
        &model,
        &mut store,
        &train_p,
        &valid_p,
        &[Task::ColumnType, Task::ColumnRelation],
        &TrainConfig { epochs: 30, batch_size: 8, ..Default::default() },
    );

    // The HR database: 10 jobsearch/review tables, 15 ground-truth clusters.
    println!("[2/3] embedding the HR columns…");
    let study = generate_case_study(&kb, seed);
    let gold: Vec<usize> = study.columns.iter().map(|c| c.cluster as usize).collect();
    let annotator = Annotator {
        model: &model,
        store: &store,
        tokenizer: &lm.tokenizer,
        type_vocab: &train_ds.type_vocab,
        rel_vocab: &train_ds.rel_vocab,
    };
    let mut doduo_embs = Vec::new();
    for table in &study.tables {
        doduo_embs.extend(annotator.column_embeddings(table));
    }

    let ft = FastText::train(&corpus, FastTextConfig::default());
    let mut ft_embs = Vec::new();
    for table in &study.tables {
        for col in &table.columns {
            ft_embs.push(ft.embed_column_values(&col.values));
        }
    }

    println!("[3/3] k-means (k = {}) and cluster quality:", ALL_CLUSTERS.len());
    let k = ALL_CLUSTERS.len();
    for (name, embs) in [("Doduo contextualized", &doduo_embs), ("fastText static", &ft_embs)] {
        let pred = kmeans(embs, k, 100, seed);
        println!(
            "  {name:<22} homogeneity {:.3}  completeness {:.3}  v-measure {:.3}",
            homogeneity(&gold, &pred),
            completeness(&gold, &pred),
            v_measure(&gold, &pred)
        );
    }

    // Show one discovered cluster as the data scientist would see it.
    let pred = kmeans(&doduo_embs, k, 100, seed);
    let biggest = (0..k).max_by_key(|&c| pred.iter().filter(|&&p| p == c).count()).expect("k >= 1");
    println!("\nlargest Doduo cluster contains columns:");
    for (i, col) in study.columns.iter().enumerate() {
        if pred[i] == biggest {
            let name =
                study.tables[col.table_idx].columns[col.col_idx].name.clone().unwrap_or_default();
            println!(
                "  {}.{name}  (gold: {})",
                study.tables[col.table_idx].id,
                col.cluster.label()
            );
        }
    }
}
