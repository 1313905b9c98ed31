//! Pretraining corpus generation.
//!
//! Stands in for Wikipedia in BERT's pretraining: every fact in the
//! [`KnowledgeBase`] is verbalized through simple templates, with
//! *frequency control per domain*. The paper's probing analysis (Tables
//! 12-13) found that well-probed types (election, river, religion, author,
//! university) are frequent in the pretraining corpus while poorly-probed
//! ones (monarch, constellation, invention, organism, kingdom) are rare —
//! we reproduce that mechanism by emitting few sentences for the rare
//! domains.

use crate::kb::{KnowledgeBase, Profession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Repetitions of each fact in the frequent domains (people, films, cities,
/// teams).
const COMMON_REPS: usize = 3;
/// Repetitions in the rare domains (kingdoms, constellations, organisms,
/// inventions, monarch facts) — kept low so probing ranks them poorly, as in
/// Table 12.
const RARE_REPS: usize = 1;

/// Generates the full sentence corpus. Deterministic in `(kb, seed)`.
pub fn generate_corpus(kb: &KnowledgeBase, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<String> = Vec::new();
    let push_n = |out: &mut Vec<String>, n: usize, s: String| {
        for _ in 0..n {
            out.push(s.clone());
        }
    };
    let (c, r) = (COMMON_REPS, RARE_REPS);

    // People: professions, birthplaces, residences, nationality.
    for p in &kb.people {
        for prof in &p.professions {
            // Monarch facts are in the rare tier.
            let reps = if *prof == Profession::Monarch { r } else { c };
            push_n(&mut out, reps, format!("{} is a {}", p.name, prof.word()));
        }
        push_n(&mut out, c, format!("{} was born in {}", p.name, kb.city_name(p.birth_city)));
        push_n(&mut out, c, format!("{} lived in {}", p.name, kb.city_name(p.lived_city)));
        push_n(&mut out, c, format!("{} is from {}", p.name, kb.country_name(p.nationality)));
        if let (Some(team), Some(pos)) = (p.team, p.position.as_ref()) {
            push_n(&mut out, c, format!("{} plays for {}", p.name, kb.teams[team].name));
            push_n(&mut out, c, format!("{} plays {}", p.name, pos));
        }
    }

    // Films.
    for f in &kb.films {
        push_n(&mut out, c, format!("{} is a film", f.title));
        for &d in &f.directors {
            push_n(&mut out, c, format!("{} was directed by {}", f.title, kb.person_name(d)));
        }
        for &pr in &f.producers {
            push_n(&mut out, c, format!("{} was produced by {}", f.title, kb.person_name(pr)));
        }
        push_n(
            &mut out,
            c,
            format!("the story of {} was written by {}", f.title, kb.person_name(f.story_by)),
        );
        push_n(
            &mut out,
            c,
            format!("{} was produced by {}", f.title, kb.companies[f.production_company].name),
        );
        push_n(&mut out, c, format!("{} was released in {}", f.title, kb.country_name(f.country)));
        push_n(&mut out, r, format!("{} is a {} film from {}", f.title, f.genre, f.year));
    }

    // Cities and countries.
    for city in &kb.cities {
        push_n(
            &mut out,
            c,
            format!("{} is a city in {}", city.name, kb.country_name(city.country)),
        );
        push_n(&mut out, r, format!("{} has a population of {}", city.name, city.population));
        if let Some(a) = &city.airport {
            push_n(&mut out, c, format!("{a} is an airport near {}", city.name));
        }
    }
    for country in &kb.countries {
        push_n(&mut out, c, format!("{} is a country", country.name));
        push_n(&mut out, c, format!("{} is spoken in {}", country.language, country.name));
    }

    // Teams.
    for t in &kb.teams {
        let sport = if t.football { "football" } else { "baseball" };
        push_n(&mut out, c, format!("{} is a {} team", t.name, sport));
        push_n(&mut out, c, format!("{} is based in {}", t.name, kb.city_name(t.city)));
        push_n(&mut out, c, format!("{} is coached by {}", t.name, kb.person_name(t.coach)));
        if t.football {
            push_n(&mut out, c, format!("{} plays in the {}", t.name, t.conference));
        }
    }

    // Books, universities, rivers, elections (frequent tier — these probe
    // well in Table 12).
    for b in &kb.books {
        push_n(&mut out, c, format!("{} is a book", b.title));
        push_n(&mut out, c, format!("{} was written by {}", b.title, kb.person_name(b.author)));
    }
    for u in &kb.universities {
        push_n(&mut out, c, format!("{} is a university", u.name));
        push_n(&mut out, c, format!("{} is located in {}", u.name, kb.city_name(u.city)));
    }
    for riv in &kb.rivers {
        push_n(&mut out, c, format!("{} is a river in {}", riv.name, kb.country_name(riv.country)));
        push_n(&mut out, r, format!("{} is {} kilometers long", riv.name, riv.length_km));
    }
    for e in &kb.elections {
        push_n(&mut out, c, format!("the {} was an election", e.name));
        push_n(&mut out, c, format!("the {} was held in {}", e.name, kb.country_name(e.country)));
    }
    for rel in &kb.religions {
        push_n(&mut out, c, format!("{rel} is a religion"));
    }

    // Awards and TV programs.
    for a in &kb.awards {
        push_n(&mut out, c, format!("the {} was won by {}", a.name, kb.person_name(a.winner)));
        for &n in &a.nominees {
            push_n(&mut out, r, format!("{} was nominated for the {}", kb.person_name(n), a.name));
        }
    }
    for tv in &kb.tv_programs {
        push_n(&mut out, c, format!("{} is a television program", tv.name));
        push_n(&mut out, r, format!("{} is from {}", tv.name, kb.country_name(tv.country)));
    }

    // Rare tier: kingdoms, constellations, organisms, inventions.
    for k in &kb.kingdoms {
        push_n(&mut out, r, format!("the {} is a kingdom", k.name));
        push_n(
            &mut out,
            r,
            format!("{} is a monarch of the {}", kb.person_name(k.monarch), k.name),
        );
    }
    for con in &kb.constellations {
        push_n(&mut out, r, format!("{con} is a constellation"));
    }
    for org in &kb.organisms {
        push_n(&mut out, r, format!("the {org} is an organism"));
    }
    for inv in &kb.inventions {
        push_n(&mut out, r, format!("{} is an invention", inv.name));
        push_n(
            &mut out,
            r,
            format!("{} was invented by {}", inv.name, kb.person_name(inv.inventor)),
        );
    }
    for g in &kb.genres {
        push_n(&mut out, c, format!("{g} is a genre of music"));
    }

    // Shuffle so mini-batches mix domains.
    for i in (1..out.len()).rev() {
        let j = rng.gen_range(0..=i);
        out.swap(i, j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::{KbConfig, KnowledgeBase};

    fn corpus() -> (KnowledgeBase, Vec<String>) {
        let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
        let c = generate_corpus(&kb, 42);
        (kb, c)
    }

    #[test]
    fn corpus_is_substantial_and_deterministic() {
        let (_, a) = corpus();
        let (_, b) = corpus();
        assert!(a.len() > 5_000, "corpus too small: {}", a.len());
        assert_eq!(a, b);
    }

    #[test]
    fn common_domains_outnumber_rare_domains() {
        let (_, c) = corpus();
        let count = |pat: &str| c.iter().filter(|s| s.contains(pat)).count();
        let director = count("is a director");
        let monarch = count("is a monarch");
        let kingdom = count("is a kingdom");
        let city = count("is a city in");
        assert!(director > monarch, "director {director} vs monarch {monarch}");
        assert!(city > kingdom * 3, "city {city} vs kingdom {kingdom}");
    }

    #[test]
    fn facts_are_verbalized_consistently_with_kb() {
        let (kb, c) = corpus();
        // Every film's director sentence must exist.
        let f = &kb.films[0];
        let d = kb.person_name(f.directors[0]);
        let expect = format!("{} was directed by {}", f.title, d);
        assert!(c.contains(&expect), "missing: {expect}");
        // Every person's birthplace sentence must exist.
        let p = &kb.people[0];
        let expect = format!("{} was born in {}", p.name, kb.city_name(p.birth_city));
        assert!(c.contains(&expect));
    }

    #[test]
    fn sentences_are_lowercase_ascii() {
        let (_, c) = corpus();
        for s in c.iter().take(500) {
            assert!(s.is_ascii(), "non-ascii sentence: {s}");
            assert_eq!(s, &s.to_lowercase(), "sentence not lowercase: {s}");
        }
    }
}
