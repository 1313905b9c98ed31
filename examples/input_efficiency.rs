//! Input-data efficiency (the Table 8 / Table 11 analysis as an example):
//! how does Doduo's accuracy change with the `MaxToken/col` serialization
//! budget? The paper's headline: 8 tokens per column already carry most of
//! the signal — which is what makes Doduo practical for wide tables.
//!
//! Run with: `cargo run --release --example input_efficiency`

use doduo_core::{
    build_finetune_model, evaluate, prepare, pretrain_lm, train, DoduoConfig, PretrainRecipe, Task,
    TrainConfig,
};
use doduo_datagen::{
    generate_corpus, generate_wikitable, KbConfig, KnowledgeBase, WikiTableConfig,
};
use doduo_table::SerializeConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let seed = 42;
    let kb = KnowledgeBase::generate(&KbConfig::default(), seed);
    let corpus = generate_corpus(&kb, seed);
    println!("pretraining LM…");
    let mut recipe = PretrainRecipe::tiny();
    recipe.mlm.epochs = 12;
    let lm = pretrain_lm(&corpus, &recipe, seed);

    let ds = generate_wikitable(&kb, &WikiTableConfig { n_tables: 250, ..Default::default() });
    let mut rng = StdRng::seed_from_u64(seed);
    let (train_ds, valid_ds, test_ds) = ds.split(0.75, 0.1, &mut rng);

    println!("budget  type F1  rel F1  max cols supported");
    for budget in [2usize, 4, 8, 16] {
        let (mut store, model) = build_finetune_model(
            &lm,
            |enc| {
                let max_seq = enc.max_seq;
                DoduoConfig::new(enc, train_ds.type_vocab.len(), train_ds.rel_vocab.len(), true)
                    .with_serialize(SerializeConfig::new(budget, max_seq))
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
        let test_p = prepare(&model, &test_ds, &lm.tokenizer);
        let scores = evaluate(&model, &store, &test_p, doduo_tensor::default_threads());
        println!(
            "{budget:<7} {:<8.3} {:<7.3} {}",
            scores.type_micro.f1,
            scores.rel_micro.map(|r| r.f1).unwrap_or(f64::NAN),
            SerializeConfig::new(budget, lm.config.max_seq).max_supported_cols()
        );
    }
    println!(
        "\n(the paper's Table 8: with BERT's 512-token window, 8 tokens/col supports 56 columns)"
    );
}
