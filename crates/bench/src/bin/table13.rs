//! Table 13 — language-model probing on the VizNet type vocabulary
//! (Appendix A.5): template "`<value>` is a `<type>`" scored by the vanilla
//! pretrained LM over all 78 candidate type names.
//!
//! Paper's finding: types verbalized in the pretraining corpus (year,
//! state, language, day, manufacturer) probe well, while types the corpus
//! never verbalizes (organisation, nationality, creator, affiliation,
//! birthPlace) land at the bottom. Our corpus verbalizes the same kinds of
//! facts, so the same tiers emerge.

use doduo_bench::report::Report;
use doduo_bench::{ExpOptions, World};
use doduo_core::instantiate_lm;
use doduo_datagen::{gen_value, VIZNET_TYPES};
use doduo_eval::{aggregate_probes, top_bottom, ProbeItem};
use doduo_tokenizer::{CLS, SEP};
use doduo_transformer::pseudo_perplexity;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SAMPLES_PER_TYPE: usize = 3;

fn main() {
    let opts = ExpOptions::from_args_for(
        "Table 13: probing the pretrained LM on the VizNet type vocabulary",
    );
    let world = World::bootstrap(opts);
    let (store, encoder, head) = instantiate_lm(&world.lm).expect("pretrained LM must load");
    let tok = &world.lm.tokenizer;
    let mut rng = StdRng::seed_from_u64(world.opts.seed ^ 0x13bb);

    let encode = |sentence: &str| {
        let mut ids = vec![CLS];
        ids.extend(tok.encode(sentence));
        ids.push(SEP);
        ids
    };

    // Candidate words: the type names themselves, lower-cased (birthDate →
    // "birthdate" via the tokenizer's lowercasing).
    let candidates: Vec<String> = VIZNET_TYPES.iter().map(|t| t.to_lowercase()).collect();
    let article = |word: &str| {
        if word.starts_with(['a', 'e', 'i', 'o', 'u']) {
            "an"
        } else {
            "a"
        }
    };

    let mut items: Vec<(String, ProbeItem)> = Vec::new();
    for (true_idx, ty) in VIZNET_TYPES.iter().enumerate() {
        for _ in 0..SAMPLES_PER_TYPE {
            let value = gen_value(ty, &world.kb, &mut rng);
            let ppls: Vec<f32> = candidates
                .iter()
                .map(|cand| {
                    let s = format!("{value} is {} {cand}", article(cand));
                    pseudo_perplexity(&encoder, &head, &store, &encode(&s))
                })
                .collect();
            items.push((ty.to_string(), ProbeItem { ppls, true_idx }));
        }
    }
    let stats = aggregate_probes(&items);
    let (top, bottom) = top_bottom(stats.clone(), 5);

    let mut r = Report::new(
        "Table 13: VizNet type probing over 78 candidates (paper top-5: year, manufacturer, day, state, language)",
        &["tier", "type", "avg rank", "PPL/avg PPL"],
    );
    for (tier, list) in [("Top-5", &top), ("Bottom-5", &bottom)] {
        for s in list {
            r.row(&[
                tier.into(),
                s.class.clone(),
                format!("{:.2}", s.avg_rank),
                format!("{:.3}", s.avg_norm_ppl),
            ]);
        }
    }

    // Corpus-verbalized types should out-probe never-verbalized ones.
    let verbalized = [
        "city", "country", "team", "religion", "genre", "person", "director", "artist", "language",
    ];
    let mean = |pred: &dyn Fn(&str) -> bool| {
        let xs: Vec<f64> = stats.iter().filter(|s| pred(&s.class)).map(|s| s.avg_rank).collect();
        if xs.is_empty() {
            f64::NAN
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let seen_mean = mean(&|c: &str| verbalized.contains(&c));
    let unseen = ["organisation", "affiliation", "creator", "requirement", "credit"];
    let unseen_mean = mean(&|c: &str| unseen.contains(&c));
    r.check(
        format!(
            "corpus-verbalized types probe better (avg rank {seen_mean:.1} vs {unseen_mean:.1}; paper: same split)"
        ),
        seen_mean < unseen_mean,
    );
    r.check(
        "top-5 normalized PPL < bottom-5 normalized PPL (paper: 0.80-0.84 vs 1.15-1.33)",
        top.iter().map(|s| s.avg_norm_ppl).sum::<f64>()
            < bottom.iter().map(|s| s.avg_norm_ppl).sum::<f64>(),
    );
    r.print();
    eprintln!("[table13] total elapsed {:?}", world.elapsed());
}
