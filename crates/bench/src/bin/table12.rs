//! Table 12 — language-model probing on WikiTable-style classes
//! (Appendix A.5): does the *vanilla pretrained* LM (no fine-tuning) store
//! factual knowledge about column types and relations?
//!
//! Method (as in the paper): fill the template "`<value>` is a `<type>`"
//! with every candidate type word, score each filled sentence with
//! pseudo-perplexity, and record the average rank / normalized PPL of the
//! true type. Relations use "`<subject>` `<phrase>` `<object>`" templates.
//!
//! Paper's qualitative finding: frequent domains probe well
//! (government.election rank 6.7, geography.river 9.3, religion, book.author,
//! education.university) while rare ones probe poorly (royalty.monarch,
//! astronomy.constellation, law.invention, biology.organism,
//! royalty.kingdom, rank 58-73 of 80). Our corpus frequency tiers are
//! engineered to reproduce exactly this split.

use doduo_bench::report::Report;
use doduo_bench::{ExpOptions, World};
use doduo_core::instantiate_lm;
use doduo_datagen::Profession;
use doduo_eval::{aggregate_probes, top_bottom, ProbeItem};
use doduo_tokenizer::{CLS, SEP};
use doduo_transformer::pseudo_perplexity;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SAMPLES_PER_CLASS: usize = 6;

fn main() {
    let opts = ExpOptions::from_args_for(
        "Table 12: probing the pretrained LM on WikiTable types and relations",
    );
    let world = World::bootstrap(opts);
    let (store, encoder, head) = instantiate_lm(&world.lm).expect("pretrained LM must load");
    let tok = &world.lm.tokenizer;
    let kb = &world.kb;
    let mut rng = StdRng::seed_from_u64(world.opts.seed ^ 0x12aa);

    let encode = |sentence: &str| {
        let mut ids = vec![CLS];
        ids.extend(tok.encode(sentence));
        ids.push(SEP);
        ids
    };
    let ppl = |sentence: &str| pseudo_perplexity(&encoder, &head, &store, &encode(sentence));

    // ---- Column types: (class, type word, sample values).
    let sample = |rng: &mut StdRng, pool: Vec<String>, k: usize| -> Vec<String> {
        let mut out = Vec::new();
        for _ in 0..k.min(pool.len()) {
            out.push(pool[rng.gen_range(0..pool.len())].clone());
        }
        out
    };
    let people_with = |p: Profession, rng: &mut StdRng| {
        let pool: Vec<String> =
            kb.people_with(p).iter().map(|&i| kb.people[i].name.clone()).collect();
        sample(rng, pool, SAMPLES_PER_CLASS)
    };

    let type_classes: Vec<(&str, &str, Vec<String>)> = vec![
        (
            "government.election",
            "election",
            sample(
                &mut rng,
                kb.elections.iter().map(|e| format!("the {}", e.name)).collect(),
                SAMPLES_PER_CLASS,
            ),
        ),
        (
            "geography.river",
            "river",
            sample(&mut rng, kb.rivers.iter().map(|r| r.name.clone()).collect(), SAMPLES_PER_CLASS),
        ),
        ("religion.religion", "religion", kb.religions.iter().map(|s| s.to_string()).collect()),
        ("book.author", "author", people_with(Profession::Author, &mut rng)),
        (
            "education.university",
            "university",
            sample(
                &mut rng,
                kb.universities.iter().map(|u| u.name.clone()).collect(),
                SAMPLES_PER_CLASS,
            ),
        ),
        (
            "film.film",
            "film",
            sample(&mut rng, kb.films.iter().map(|f| f.title.clone()).collect(), SAMPLES_PER_CLASS),
        ),
        ("film.director", "director", people_with(Profession::Director, &mut rng)),
        ("film.producer", "producer", people_with(Profession::Producer, &mut rng)),
        (
            "location.citytown",
            "city",
            sample(&mut rng, kb.cities.iter().map(|c| c.name.clone()).collect(), SAMPLES_PER_CLASS),
        ),
        (
            "location.country",
            "country",
            sample(
                &mut rng,
                kb.countries.iter().map(|c| c.name.clone()).collect(),
                SAMPLES_PER_CLASS,
            ),
        ),
        (
            "sports.sports_team",
            "team",
            sample(&mut rng, kb.teams.iter().map(|t| t.name.clone()).collect(), SAMPLES_PER_CLASS),
        ),
        ("music.artist", "artist", people_with(Profession::MusicArtist, &mut rng)),
        (
            "book.book",
            "book",
            sample(&mut rng, kb.books.iter().map(|b| b.title.clone()).collect(), SAMPLES_PER_CLASS),
        ),
        ("royalty.monarch", "monarch", people_with(Profession::Monarch, &mut rng)),
        (
            "astronomy.constellation",
            "constellation",
            kb.constellations.iter().take(SAMPLES_PER_CLASS).map(|s| s.to_string()).collect(),
        ),
        (
            "law.invention",
            "invention",
            kb.inventions.iter().take(SAMPLES_PER_CLASS).map(|i| i.name.clone()).collect(),
        ),
        (
            "biology.organism",
            "organism",
            kb.organisms.iter().take(SAMPLES_PER_CLASS).map(|s| format!("the {s}")).collect(),
        ),
        (
            "royalty.kingdom",
            "kingdom",
            kb.kingdoms.iter().take(SAMPLES_PER_CLASS).map(|k| format!("the {}", k.name)).collect(),
        ),
    ];
    let candidates: Vec<&str> = type_classes.iter().map(|c| c.1).collect();

    let article = |word: &str| {
        if word.starts_with(['a', 'e', 'i', 'o', 'u']) {
            "an"
        } else {
            "a"
        }
    };

    let mut items: Vec<(String, ProbeItem)> = Vec::new();
    for (class, _, values) in &type_classes {
        let true_idx = type_classes.iter().position(|c| &c.0 == class).expect("class present");
        for v in values {
            let ppls: Vec<f32> = candidates
                .iter()
                .map(|cand| ppl(&format!("{v} is {} {cand}", article(cand))))
                .collect();
            items.push((class.to_string(), ProbeItem { ppls, true_idx }));
        }
    }
    let stats = aggregate_probes(&items);
    let (top, bottom) = top_bottom(stats.clone(), 5);

    let mut r = Report::new(
        format!("Table 12 (types): probing ranks over {} candidates", candidates.len()),
        &["tier", "class", "avg rank", "PPL/avg PPL"],
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
    // The paper's tiering: frequent-domain classes probe better than the
    // rare tier (monarch / constellation / invention / organism / kingdom).
    let rare = [
        "royalty.monarch",
        "astronomy.constellation",
        "law.invention",
        "biology.organism",
        "royalty.kingdom",
    ];
    let mean = |pred: &dyn Fn(&str) -> bool| {
        let xs: Vec<f64> = stats.iter().filter(|s| pred(&s.class)).map(|s| s.avg_rank).collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    let rare_mean = mean(&|c: &str| rare.contains(&c));
    let freq_mean = mean(&|c: &str| !rare.contains(&c));
    r.check(
        format!(
            "frequent classes probe better than rare ones (avg rank {freq_mean:.1} vs {rare_mean:.1}; paper: ~12 vs ~66)"
        ),
        freq_mean < rare_mean,
    );
    r.check(
        "top-5 mean normalized PPL < 1 (truth more natural than average)",
        top.iter().map(|s| s.avg_norm_ppl).sum::<f64>() / 5.0 < 1.0,
    );
    r.print();

    // ---- Column relations.
    let person = |i: usize| kb.people[i].name.clone();
    let mut rel_items: Vec<(String, String, String)> = Vec::new(); // (class, subj, obj)
    let push_rel =
        |items: &mut Vec<(String, String, String)>, class: &str, pairs: Vec<(String, String)>| {
            for (a, b) in pairs.into_iter().take(SAMPLES_PER_CLASS) {
                items.push((class.to_string(), a, b));
            }
        };
    push_rel(
        &mut rel_items,
        "people.person.place_of_birth",
        kb.people
            .iter()
            .map(|p| (p.name.clone(), kb.city_name(p.birth_city).to_string()))
            .collect(),
    );
    push_rel(
        &mut rel_items,
        "people.person.place_lived",
        kb.people
            .iter()
            .map(|p| (p.name.clone(), kb.city_name(p.lived_city).to_string()))
            .collect(),
    );
    push_rel(
        &mut rel_items,
        "film.film.directed_by",
        kb.films.iter().map(|f| (f.title.clone(), person(f.directors[0]))).collect(),
    );
    push_rel(
        &mut rel_items,
        "film.film.produced_by",
        kb.films.iter().map(|f| (f.title.clone(), person(f.producers[0]))).collect(),
    );
    push_rel(
        &mut rel_items,
        "book.book.author",
        kb.books.iter().map(|b| (b.title.clone(), person(b.author))).collect(),
    );
    push_rel(
        &mut rel_items,
        "sports.pro_athlete.teams",
        kb.people
            .iter()
            .filter(|p| p.team.is_some())
            .map(|p| (p.name.clone(), kb.teams[p.team.expect("filtered")].name.clone()))
            .collect(),
    );
    push_rel(
        &mut rel_items,
        "location.location.containedby",
        kb.cities
            .iter()
            .map(|c| (c.name.clone(), kb.country_name(c.country).to_string()))
            .collect(),
    );
    push_rel(
        &mut rel_items,
        "location.country.languages_spoken",
        kb.countries.iter().map(|c| (c.language.clone(), c.name.clone())).collect(),
    );
    push_rel(
        &mut rel_items,
        "award.award_honor.award_winner",
        kb.awards.iter().map(|a| (format!("the {}", a.name), person(a.winner))).collect(),
    );
    push_rel(
        &mut rel_items,
        "location.location.nearby_airports",
        kb.cities.iter().filter_map(|c| c.airport.clone().map(|a| (a, c.name.clone()))).collect(),
    );
    push_rel(
        &mut rel_items,
        "baseball.baseball_player.position_s",
        kb.people_with(Profession::BaseballPlayer)
            .iter()
            .map(|&i| {
                (
                    kb.people[i].name.clone(),
                    kb.people[i].position.clone().expect("players have positions"),
                )
            })
            .collect(),
    );
    push_rel(
        &mut rel_items,
        "tv.tv_program.country_of_origin",
        kb.tv_programs
            .iter()
            .map(|t| (t.name.clone(), kb.country_name(t.country).to_string()))
            .collect(),
    );

    // Phrase verbalizations (the paper manually converts relation names).
    let phrases: Vec<(&str, &str)> = vec![
        ("people.person.place_of_birth", "was born in"),
        ("people.person.place_lived", "lived in"),
        ("film.film.directed_by", "was directed by"),
        ("film.film.produced_by", "was produced by"),
        ("book.book.author", "was written by"),
        ("sports.pro_athlete.teams", "plays for"),
        ("location.location.containedby", "is a city in"),
        ("location.country.languages_spoken", "is spoken in"),
        ("award.award_honor.award_winner", "was won by"),
        ("location.location.nearby_airports", "is an airport near"),
        ("baseball.baseball_player.position_s", "plays"),
        ("tv.tv_program.country_of_origin", "is from"),
    ];

    let mut rel_probe_items: Vec<(String, ProbeItem)> = Vec::new();
    for (class, subj, obj) in &rel_items {
        let true_idx = phrases.iter().position(|(c, _)| c == class).expect("phrase defined");
        let ppls: Vec<f32> =
            phrases.iter().map(|(_, phrase)| ppl(&format!("{subj} {phrase} {obj}"))).collect();
        rel_probe_items.push((class.clone(), ProbeItem { ppls, true_idx }));
    }
    let rel_stats = aggregate_probes(&rel_probe_items);
    let (rtop, rbottom) = top_bottom(rel_stats.clone(), 5);

    let mut r2 = Report::new(
        format!("Table 12 (relations): probing ranks over {} phrases", phrases.len()),
        &["tier", "relation", "avg rank", "PPL/avg PPL"],
    );
    for (tier, list) in [("Top-5", &rtop), ("Bottom-5", &rbottom)] {
        for s in list {
            r2.row(&[
                tier.into(),
                s.class.clone(),
                format!("{:.2}", s.avg_rank),
                format!("{:.3}", s.avg_norm_ppl),
            ]);
        }
    }
    let pob = rel_stats.iter().find(|s| s.class == "people.person.place_of_birth").expect("probed");
    r2.check(
        format!("place_of_birth probes near the top (rank {:.1}; paper: 3.7 of 34)", pob.avg_rank),
        pob.avg_rank <= phrases.len() as f64 / 2.0,
    );
    r2.check(
        "relation ranks spread less than type ranks (paper: templates with 3 blanks are noisier)",
        (rbottom[0].avg_rank - rtop[0].avg_rank) <= (bottom[0].avg_rank - top[0].avg_rank) + 2.0,
    );
    r2.print();
    eprintln!("[table12] total elapsed {:?}", world.elapsed());
}
