//! Quickstart: the DODUO pipeline end to end, in miniature.
//!
//! 1. Generate a synthetic knowledge base and verbalize it into a corpus.
//! 2. Pretrain a small BERT-style LM (masked-language-model objective).
//! 3. Fine-tune Doduo on a WikiTable-style benchmark with multi-task
//!    learning (column types + column relations, Algorithm 1).
//! 4. Annotate a brand-new table — the paper's Figure 2(a) scenario.
//!
//! Run with: `cargo run --release --example quickstart`

use doduo_core::{
    build_finetune_model, prepare, pretrain_lm, train, Annotator, DoduoConfig, PretrainRecipe,
    Task, TrainConfig,
};
use doduo_datagen::{
    generate_corpus, generate_wikitable, KbConfig, KnowledgeBase, WikiTableConfig,
};
use doduo_table::{Column, SerializeConfig, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let seed = 42;

    // --- 1. The world: entities, facts, and text about them.
    println!("[1/4] generating knowledge base + corpus…");
    let kb = KnowledgeBase::generate(&KbConfig::default(), seed);
    let corpus = generate_corpus(&kb, seed);
    println!("      {} sentences, e.g. {:?}", corpus.len(), &corpus[0]);

    // --- 2. Pretrain the language model (a scaled-down BERT).
    println!("[2/4] pretraining the LM (masked language modelling)…");
    let mut recipe = PretrainRecipe::tiny();
    recipe.mlm.epochs = 12;
    let lm = pretrain_lm(&corpus, &recipe, seed);
    println!(
        "      vocab = {}, MLM loss {:.2} -> {:.2}",
        lm.tokenizer.vocab_size(),
        lm.losses.first().unwrap(),
        lm.losses.last().unwrap()
    );

    // --- 3. Fine-tune Doduo with multi-task learning.
    println!("[3/4] fine-tuning Doduo (types + relations)…");
    let ds = generate_wikitable(&kb, &WikiTableConfig { n_tables: 250, ..Default::default() });
    let mut rng = StdRng::seed_from_u64(seed);
    let (train_ds, valid_ds, test_ds) = ds.split(0.75, 0.1, &mut rng);
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
    let report = train(
        &model,
        &mut store,
        &train_p,
        &valid_p,
        &[Task::ColumnType, Task::ColumnRelation],
        &TrainConfig { epochs: 40, batch_size: 8, ..Default::default() },
    );
    let test_p = prepare(&model, &test_ds, &lm.tokenizer);
    let scores = doduo_core::evaluate(&model, &store, &test_p, doduo_tensor::default_threads());
    println!(
        "      best epoch {} | test type F1 {:.3}, rel F1 {:.3}",
        report.best_epoch,
        scores.type_micro.f1,
        scores.rel_micro.map(|r| r.f1).unwrap_or(f64::NAN)
    );

    // --- 4. Annotate an unseen table (Figure 2(a): films & directors).
    println!("[4/4] annotating a new table…");
    let film = &kb.films[0];
    let film2 = &kb.films[1];
    let table = Table::new(
        "demo",
        vec![
            Column::new(vec![film.title.clone(), film2.title.clone()]),
            Column::new(vec![
                kb.person_name(film.directors[0]).to_string(),
                kb.person_name(film2.directors[0]).to_string(),
            ]),
            Column::new(vec![
                kb.country_name(film.country).to_string(),
                kb.country_name(film2.country).to_string(),
            ]),
        ],
    );
    let annotator = Annotator {
        model: &model,
        store: &store,
        tokenizer: &lm.tokenizer,
        type_vocab: &train_ds.type_vocab,
        rel_vocab: &train_ds.rel_vocab,
    };
    let ann = annotator.annotate(&table);
    for t in &ann.types {
        let top: Vec<String> =
            t.labels.iter().take(2).map(|(n, p)| format!("{n} ({p:.2})")).collect();
        println!("      column {}: {}", t.column, top.join(", "));
    }
    for rel in &ann.relations {
        println!(
            "      relation col{}→col{}: {} ({:.2})",
            rel.subject, rel.object, rel.labels[0].0, rel.labels[0].1
        );
    }
}
