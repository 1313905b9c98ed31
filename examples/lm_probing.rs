//! Language-model probing (Appendix A.5): after masked-LM pretraining on
//! the synthetic corpus, the *vanilla* LM — no fine-tuning — already stores
//! factual knowledge that column annotation benefits from. We probe it with
//! templates, ranking candidate type words by pseudo-perplexity.
//!
//! Run with: `cargo run --release --example lm_probing`

use doduo_core::{instantiate_lm, pretrain_lm, PretrainRecipe};
use doduo_datagen::{generate_corpus, KbConfig, KnowledgeBase, Profession};
use doduo_tokenizer::{CLS, SEP};
use doduo_transformer::pseudo_perplexity;

fn main() {
    let seed = 42;
    let kb = KnowledgeBase::generate(&KbConfig::default(), seed);
    let corpus = generate_corpus(&kb, seed);
    println!("pretraining LM on {} sentences…", corpus.len());
    let mut recipe = PretrainRecipe::tiny();
    recipe.mlm.epochs = 12;
    let lm = pretrain_lm(&corpus, &recipe, seed);
    let (store, encoder, head) = instantiate_lm(&lm).expect("pretrained LM must load");
    let tok = &lm.tokenizer;

    let ppl = |sentence: &str| {
        let mut ids = vec![CLS];
        ids.extend(tok.encode(sentence));
        ids.push(SEP);
        pseudo_perplexity(&encoder, &head, &store, &ids)
    };

    // Probe: who is this person? Candidates span professions.
    let candidates = ["director", "producer", "city", "film", "team", "monarch"];
    let director = &kb.people[kb.people_with(Profession::Director)[0]];
    let city = &kb.cities[0];
    let film = &kb.films[0];

    for (entity, truth) in [
        (director.name.clone(), "director"),
        (city.name.clone(), "city"),
        (film.title.clone(), "film"),
    ] {
        println!("\ntemplate: \"{entity} is a ___\"   (truth: {truth})");
        let mut scored: Vec<(f32, &str)> =
            candidates.iter().map(|c| (ppl(&format!("{entity} is a {c}")), *c)).collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite ppl"));
        for (i, (p, c)) in scored.iter().enumerate() {
            let marker = if *c == truth { "  <-- truth" } else { "" };
            println!("  {}. {c:<12} ppl {p:8.2}{marker}", i + 1);
        }
    }

    // Relation knowledge: birthplaces.
    let p = &kb.people[0];
    let born = kb.city_name(p.birth_city);
    let other = kb.city_name((p.birth_city + 7) % kb.cities.len());
    let good = ppl(&format!("{} was born in {born}", p.name));
    let bad = ppl(&format!("{} was born in {other}", p.name));
    println!(
        "\n\"{} was born in ___\": {born} -> ppl {good:.2}, {other} -> ppl {bad:.2} ({})",
        p.name,
        if good < bad { "LM prefers the true fact" } else { "LM is unsure" }
    );
}
