//! WikiTable-style benchmark generator.
//!
//! Mirrors the TURL/WikiTable benchmark used in §5.1: tables drawn from the
//! knowledge base, *multi-label* Freebase-style column types, and relation
//! annotations connecting the table's subject column (index 0) to each other
//! column. The vocabulary is scaled down from 255 types / 121 relations to
//! ~40 / ~30 (see ARCHITECTURE.md) but keeps the classes the paper analyses
//! by name (Tables 10 and 12): `music.artist`, `music.writer`,
//! `american_football.*`, `film.film.produced_by`,
//! `people.person.place_of_birth`, and so on.

use crate::kb::{KnowledgeBase, Profession};
use doduo_table::{AnnotatedTable, Column, Dataset, LabelVocab, RelAnnotation, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generation knobs.
#[derive(Clone, Debug)]
pub struct WikiTableConfig {
    pub n_tables: usize,
    pub min_rows: usize,
    pub max_rows: usize,
    pub seed: u64,
}

impl Default for WikiTableConfig {
    fn default() -> Self {
        WikiTableConfig { n_tables: 900, min_rows: 3, max_rows: 5, seed: 42 }
    }
}

/// Context threaded through schema generators.
struct Gen<'a> {
    kb: &'a KnowledgeBase,
    types: &'a mut LabelVocab,
    rels: &'a mut LabelVocab,
}

impl Gen<'_> {
    fn ty(&mut self, names: &[&str]) -> Vec<u32> {
        names.iter().map(|n| self.types.intern(n)).collect()
    }

    fn rel(&mut self, name: &str) -> u32 {
        self.rels.intern(name)
    }
}

/// Samples `n` distinct indices from `0..len` (with replacement if the pool
/// is smaller than `n`).
fn sample_distinct(rng: &mut StdRng, len: usize, n: usize) -> Vec<usize> {
    if len <= n {
        return (0..len).cycle().take(n).collect();
    }
    let mut picked = Vec::with_capacity(n);
    while picked.len() < n {
        let i = rng.gen_range(0..len);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

type SchemaFn = fn(&mut Gen<'_>, &mut StdRng, usize, usize) -> AnnotatedTable;

fn relation(object_col: usize, relation: u32) -> RelAnnotation {
    RelAnnotation { subject_col: 0, object_col, relation }
}

// ---------------------------------------------------------------- schemas

/// `[film, director, producer, country]` — the Figure 2(a) table.
fn film_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let films = sample_distinct(rng, g.kb.films.len(), rows);
    let mut titles = Vec::new();
    let mut directors = Vec::new();
    let mut producers = Vec::new();
    let mut countries = Vec::new();
    for &fi in &films {
        let f = &g.kb.films[fi];
        titles.push(f.title.clone());
        directors.push(
            f.directors
                .iter()
                .map(|&d| g.kb.person_name(d).to_string())
                .collect::<Vec<_>>()
                .join(", "),
        );
        producers.push(
            f.producers
                .iter()
                .map(|&p| g.kb.person_name(p).to_string())
                .collect::<Vec<_>>()
                .join(", "),
        );
        countries.push(g.kb.country_name(f.country).to_string());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-film-{id}"),
            vec![
                Column::with_name("film", titles),
                Column::with_name("director", directors),
                Column::with_name("producer", producers),
                Column::with_name("country", countries),
            ],
        ),
        col_types: vec![
            g.ty(&["film.film"]),
            g.ty(&["people.person", "film.director"]),
            g.ty(&["people.person", "film.producer"]),
            g.ty(&["location.location", "location.country"]),
        ],
        relations: vec![
            relation(1, g.rel("film.film.directed_by")),
            relation(2, g.rel("film.film.produced_by")),
            relation(3, g.rel("film.film.country")),
        ],
    }
}

/// `[film, story writer, production company]`.
fn film_story_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let films = sample_distinct(rng, g.kb.films.len(), rows);
    let mut titles = Vec::new();
    let mut writers = Vec::new();
    let mut companies = Vec::new();
    for &fi in &films {
        let f = &g.kb.films[fi];
        titles.push(f.title.clone());
        writers.push(g.kb.person_name(f.story_by).to_string());
        companies.push(g.kb.companies[f.production_company].name.clone());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-story-{id}"),
            vec![
                Column::with_name("film", titles),
                Column::with_name("story by", writers),
                Column::with_name("production company", companies),
            ],
        ),
        col_types: vec![
            g.ty(&["film.film"]),
            g.ty(&["people.person", "film.writer"]),
            g.ty(&["business.company"]),
        ],
        relations: vec![
            relation(1, g.rel("film.film.story_by")),
            relation(2, g.rel("film.film.production_companies")),
        ],
    }
}

/// `[athlete, birthplace, team]` — the Figure 2(b) roster table.
fn roster_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let pool = g.kb.people_with(Profession::FootballPlayer);
    let picks = sample_distinct(rng, pool.len(), rows);
    let mut names = Vec::new();
    let mut birth = Vec::new();
    let mut teams = Vec::new();
    for &i in &picks {
        let p = &g.kb.people[pool[i]];
        names.push(p.name.clone());
        birth.push(g.kb.city_name(p.birth_city).to_string());
        teams.push(g.kb.teams[p.team.expect("athletes have teams")].name.clone());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-roster-{id}"),
            vec![
                Column::with_name("player", names),
                Column::with_name("hometown", birth),
                Column::with_name("team", teams),
            ],
        ),
        col_types: vec![
            g.ty(&["people.person", "sports.pro_athlete"]),
            g.ty(&["location.location", "location.citytown"]),
            g.ty(&["sports.sports_team", "american_football.football_team"]),
        ],
        relations: vec![
            relation(1, g.rel("people.person.place_of_birth")),
            relation(2, g.rel("sports.pro_athlete.teams")),
        ],
    }
}

/// `[person, residence, nationality]`.
fn person_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let picks = sample_distinct(rng, g.kb.people.len(), rows);
    let mut names = Vec::new();
    let mut lived = Vec::new();
    let mut nat = Vec::new();
    for &i in &picks {
        let p = &g.kb.people[i];
        names.push(p.name.clone());
        lived.push(g.kb.city_name(p.lived_city).to_string());
        nat.push(g.kb.country_name(p.nationality).to_string());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-person-{id}"),
            vec![
                Column::with_name("name", names),
                Column::with_name("residence", lived),
                Column::with_name("nationality", nat),
            ],
        ),
        col_types: vec![
            g.ty(&["people.person"]),
            g.ty(&["location.location", "location.citytown"]),
            g.ty(&["location.location", "location.country"]),
        ],
        relations: vec![
            relation(1, g.rel("people.person.place_lived")),
            relation(2, g.rel("people.person.nationality")),
        ],
    }
}

/// `[city, country, population]`.
fn city_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let picks = sample_distinct(rng, g.kb.cities.len(), rows);
    let mut names = Vec::new();
    let mut countries = Vec::new();
    let mut pops = Vec::new();
    for &i in &picks {
        let c = &g.kb.cities[i];
        names.push(c.name.clone());
        countries.push(g.kb.country_name(c.country).to_string());
        pops.push(c.population.to_string());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-city-{id}"),
            vec![
                Column::with_name("city", names),
                Column::with_name("country", countries),
                Column::with_name("population", pops),
            ],
        ),
        col_types: vec![
            g.ty(&["location.location", "location.citytown"]),
            g.ty(&["location.location", "location.country"]),
            g.ty(&["topic.population"]),
        ],
        relations: vec![
            relation(1, g.rel("location.location.containedby")),
            relation(2, g.rel("location.statistical_region.population")),
        ],
    }
}

/// `[artist, genre, songwriter]` (Table 10's music classes).
fn music_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let artists = g.kb.people_with(Profession::MusicArtist);
    let writers = g.kb.people_with(Profession::MusicWriter);
    let picks = sample_distinct(rng, artists.len(), rows);
    let mut names = Vec::new();
    let mut genres = Vec::new();
    let mut songwriters = Vec::new();
    for &i in &picks {
        names.push(g.kb.people[artists[i]].name.clone());
        genres.push(g.kb.genres[rng.gen_range(0..g.kb.genres.len())].to_string());
        songwriters.push(g.kb.people[writers[rng.gen_range(0..writers.len())]].name.clone());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-music-{id}"),
            vec![
                Column::with_name("artist", names),
                Column::with_name("genre", genres),
                Column::with_name("songwriter", songwriters),
            ],
        ),
        col_types: vec![
            g.ty(&["people.person", "music.artist"]),
            g.ty(&["music.genre"]),
            g.ty(&["people.person", "music.writer"]),
        ],
        relations: vec![
            relation(1, g.rel("music.artist.genre")),
            relation(2, g.rel("music.artist.songwriter")),
        ],
    }
}

/// `[football team, head coach, conference]` (Table 10's football classes).
fn football_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let pool: Vec<usize> = (0..g.kb.teams.len()).filter(|&i| g.kb.teams[i].football).collect();
    let picks = sample_distinct(rng, pool.len(), rows);
    let mut names = Vec::new();
    let mut coaches = Vec::new();
    let mut confs = Vec::new();
    for &i in &picks {
        let t = &g.kb.teams[pool[i]];
        names.push(t.name.clone());
        coaches.push(g.kb.person_name(t.coach).to_string());
        confs.push(t.conference.to_string());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-football-{id}"),
            vec![
                Column::with_name("team", names),
                Column::with_name("head coach", coaches),
                Column::with_name("conference", confs),
            ],
        ),
        col_types: vec![
            g.ty(&["sports.sports_team", "american_football.football_team"]),
            g.ty(&["people.person", "american_football.football_coach"]),
            g.ty(&["american_football.football_conference"]),
        ],
        relations: vec![
            relation(1, g.rel("american_football.football_team.current_head_coach")),
            relation(2, g.rel("american_football.football_team.conference")),
        ],
    }
}

/// `[book, author, year]`.
fn book_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let picks = sample_distinct(rng, g.kb.books.len(), rows);
    let mut titles = Vec::new();
    let mut authors = Vec::new();
    let mut years = Vec::new();
    for &i in &picks {
        let b = &g.kb.books[i];
        titles.push(b.title.clone());
        authors.push(g.kb.person_name(b.author).to_string());
        years.push(b.year.to_string());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-book-{id}"),
            vec![
                Column::with_name("title", titles),
                Column::with_name("author", authors),
                Column::with_name("year", years),
            ],
        ),
        col_types: vec![
            g.ty(&["book.book"]),
            g.ty(&["people.person", "book.author"]),
            g.ty(&["time.year"]),
        ],
        relations: vec![
            relation(1, g.rel("book.book.author")),
            relation(2, g.rel("book.book.first_published")),
        ],
    }
}

/// `[baseball player, position, team]` (Table 12's `position_s` relation).
fn baseball_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let pool = g.kb.people_with(Profession::BaseballPlayer);
    let picks = sample_distinct(rng, pool.len(), rows);
    let mut names = Vec::new();
    let mut positions = Vec::new();
    let mut teams = Vec::new();
    for &i in &picks {
        let p = &g.kb.people[pool[i]];
        names.push(p.name.clone());
        positions.push(p.position.clone().expect("players have positions"));
        teams.push(g.kb.teams[p.team.expect("players have teams")].name.clone());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-baseball-{id}"),
            vec![
                Column::with_name("player", names),
                Column::with_name("position", positions),
                Column::with_name("team", teams),
            ],
        ),
        col_types: vec![
            g.ty(&["people.person", "baseball.baseball_player"]),
            g.ty(&["sports.position"]),
            g.ty(&["sports.sports_team"]),
        ],
        relations: vec![
            relation(1, g.rel("baseball.baseball_player.position_s")),
            relation(2, g.rel("sports.pro_athlete.teams")),
        ],
    }
}

/// `[city, airport, country]` (Table 12's `nearby_airports`).
fn airport_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let pool: Vec<usize> =
        (0..g.kb.cities.len()).filter(|&i| g.kb.cities[i].airport.is_some()).collect();
    let picks = sample_distinct(rng, pool.len(), rows);
    let mut cities = Vec::new();
    let mut airports = Vec::new();
    let mut countries = Vec::new();
    for &i in &picks {
        let c = &g.kb.cities[pool[i]];
        cities.push(c.name.clone());
        airports.push(c.airport.clone().expect("filtered"));
        countries.push(g.kb.country_name(c.country).to_string());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-airport-{id}"),
            vec![
                Column::with_name("city", cities),
                Column::with_name("airport", airports),
                Column::with_name("country", countries),
            ],
        ),
        col_types: vec![
            g.ty(&["location.location", "location.citytown"]),
            g.ty(&["aviation.airport"]),
            g.ty(&["location.location", "location.country"]),
        ],
        relations: vec![
            relation(1, g.rel("location.location.nearby_airports")),
            relation(2, g.rel("location.location.containedby")),
        ],
    }
}

/// `[award, winner, nominee]` (Table 12's award relations).
fn award_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let picks = sample_distinct(rng, g.kb.awards.len(), rows);
    let mut names = Vec::new();
    let mut winners = Vec::new();
    let mut nominees = Vec::new();
    for &i in &picks {
        let a = &g.kb.awards[i];
        names.push(a.name.clone());
        winners.push(g.kb.person_name(a.winner).to_string());
        nominees.push(g.kb.person_name(a.nominees[rng.gen_range(0..a.nominees.len())]).to_string());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-award-{id}"),
            vec![
                Column::with_name("award", names),
                Column::with_name("winner", winners),
                Column::with_name("nominee", nominees),
            ],
        ),
        col_types: vec![g.ty(&["award.award"]), g.ty(&["people.person"]), g.ty(&["people.person"])],
        relations: vec![
            relation(1, g.rel("award.award_honor.award_winner")),
            relation(2, g.rel("award.award.award_nominee")),
        ],
    }
}

/// `[tv program, country of origin, production company]`.
fn tv_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let picks = sample_distinct(rng, g.kb.tv_programs.len(), rows);
    let mut names = Vec::new();
    let mut countries = Vec::new();
    let mut companies = Vec::new();
    for &i in &picks {
        let t = &g.kb.tv_programs[i];
        names.push(t.name.clone());
        countries.push(g.kb.country_name(t.country).to_string());
        companies.push(g.kb.companies[t.company].name.clone());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-tv-{id}"),
            vec![
                Column::with_name("program", names),
                Column::with_name("country", countries),
                Column::with_name("company", companies),
            ],
        ),
        col_types: vec![
            g.ty(&["tv.tv_program"]),
            g.ty(&["location.location", "location.country"]),
            g.ty(&["business.company"]),
        ],
        relations: vec![
            relation(1, g.rel("tv.tv_program.country_of_origin")),
            relation(2, g.rel("tv.tv_program.production_company")),
        ],
    }
}

/// `[election, country, year]` (Table 12's best-probed type).
fn election_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let picks = sample_distinct(rng, g.kb.elections.len(), rows);
    let mut names = Vec::new();
    let mut countries = Vec::new();
    let mut years = Vec::new();
    for &i in &picks {
        let e = &g.kb.elections[i];
        names.push(e.name.clone());
        countries.push(g.kb.country_name(e.country).to_string());
        years.push(e.year.to_string());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-election-{id}"),
            vec![
                Column::with_name("election", names),
                Column::with_name("country", countries),
                Column::with_name("year", years),
            ],
        ),
        col_types: vec![
            g.ty(&["government.election"]),
            g.ty(&["location.location", "location.country"]),
            g.ty(&["time.year"]),
        ],
        relations: vec![
            relation(1, g.rel("government.election.country")),
            relation(2, g.rel("government.election.date")),
        ],
    }
}

/// `[university, city]`.
fn university_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let picks = sample_distinct(rng, g.kb.universities.len(), rows);
    let mut names = Vec::new();
    let mut cities = Vec::new();
    for &i in &picks {
        let u = &g.kb.universities[i];
        names.push(u.name.clone());
        cities.push(g.kb.city_name(u.city).to_string());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-university-{id}"),
            vec![Column::with_name("university", names), Column::with_name("city", cities)],
        ),
        col_types: vec![
            g.ty(&["education.university"]),
            g.ty(&["location.location", "location.citytown"]),
        ],
        relations: vec![relation(1, g.rel("education.university.city"))],
    }
}

/// `[river, country, length]`.
fn river_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let picks = sample_distinct(rng, g.kb.rivers.len(), rows);
    let mut names = Vec::new();
    let mut countries = Vec::new();
    let mut lengths = Vec::new();
    for &i in &picks {
        let r = &g.kb.rivers[i];
        names.push(r.name.clone());
        countries.push(g.kb.country_name(r.country).to_string());
        lengths.push(format!("{} km", r.length_km));
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-river-{id}"),
            vec![
                Column::with_name("river", names),
                Column::with_name("country", countries),
                Column::with_name("length", lengths),
            ],
        ),
        col_types: vec![
            g.ty(&["geography.river"]),
            g.ty(&["location.location", "location.country"]),
            g.ty(&["measurement.length"]),
        ],
        relations: vec![
            relation(1, g.rel("geography.river.basin_country")),
            relation(2, g.rel("geography.river.length")),
        ],
    }
}

/// `[monarch, kingdom, religion]` (Table 12's worst-probed types).
fn monarch_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let picks = sample_distinct(rng, g.kb.kingdoms.len(), rows);
    let mut monarchs = Vec::new();
    let mut kingdoms = Vec::new();
    let mut religions = Vec::new();
    for &i in &picks {
        let k = &g.kb.kingdoms[i];
        monarchs.push(g.kb.person_name(k.monarch).to_string());
        kingdoms.push(k.name.clone());
        religions.push(g.kb.religions[rng.gen_range(0..g.kb.religions.len())].to_string());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-monarch-{id}"),
            vec![
                Column::with_name("monarch", monarchs),
                Column::with_name("kingdom", kingdoms),
                Column::with_name("religion", religions),
            ],
        ),
        col_types: vec![
            g.ty(&["people.person", "royalty.monarch"]),
            g.ty(&["royalty.kingdom"]),
            g.ty(&["religion.religion"]),
        ],
        relations: vec![
            relation(1, g.rel("royalty.monarch.kingdom")),
            relation(2, g.rel("people.person.religion")),
        ],
    }
}

/// `[country, language]` (Table 12's `languages_spoken`).
fn language_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let picks = sample_distinct(rng, g.kb.countries.len(), rows);
    let mut countries = Vec::new();
    let mut langs = Vec::new();
    for &i in &picks {
        countries.push(g.kb.countries[i].name.clone());
        langs.push(g.kb.countries[i].language.clone());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-language-{id}"),
            vec![Column::with_name("country", countries), Column::with_name("language", langs)],
        ),
        col_types: vec![
            g.ty(&["location.location", "location.country"]),
            g.ty(&["language.human_language"]),
        ],
        relations: vec![relation(1, g.rel("location.country.languages_spoken"))],
    }
}

/// `[invention, inventor, year]`.
fn invention_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let picks = sample_distinct(rng, g.kb.inventions.len(), rows);
    let mut names = Vec::new();
    let mut inventors = Vec::new();
    let mut years = Vec::new();
    for &i in &picks {
        let inv = &g.kb.inventions[i];
        names.push(inv.name.clone());
        inventors.push(g.kb.person_name(inv.inventor).to_string());
        years.push(inv.year.to_string());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-invention-{id}"),
            vec![
                Column::with_name("invention", names),
                Column::with_name("inventor", inventors),
                Column::with_name("year", years),
            ],
        ),
        col_types: vec![g.ty(&["law.invention"]), g.ty(&["people.person"]), g.ty(&["time.year"])],
        relations: vec![
            relation(1, g.rel("law.invention.inventor")),
            relation(2, g.rel("law.invention.date")),
        ],
    }
}

/// `[organism, constellation?]` — no; `[organism, country]`: where a species
/// is found (fills the `biology.organism` / `astronomy.constellation`
/// probing classes with a nature/sky fact table).
fn nature_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    let picks = sample_distinct(rng, g.kb.organisms.len(), rows);
    let mut organisms = Vec::new();
    let mut countries = Vec::new();
    for &i in &picks {
        organisms.push(format!("the {}", g.kb.organisms[i]));
        countries.push(g.kb.countries[rng.gen_range(0..g.kb.countries.len())].name.clone());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-nature-{id}"),
            vec![Column::with_name("species", organisms), Column::with_name("range", countries)],
        ),
        col_types: vec![
            g.ty(&["biology.organism"]),
            g.ty(&["location.location", "location.country"]),
        ],
        relations: vec![relation(1, g.rel("biology.organism.found_in"))],
    }
}

/// `[constellation, month]` — sky observation tables.
fn sky_table(g: &mut Gen<'_>, rng: &mut StdRng, rows: usize, id: usize) -> AnnotatedTable {
    const MONTHS: [&str; 12] = [
        "january",
        "february",
        "march",
        "april",
        "may",
        "june",
        "july",
        "august",
        "september",
        "october",
        "november",
        "december",
    ];
    let picks = sample_distinct(rng, g.kb.constellations.len(), rows);
    let mut cons = Vec::new();
    let mut months = Vec::new();
    for &i in &picks {
        cons.push(g.kb.constellations[i].to_string());
        months.push(MONTHS[rng.gen_range(0..12usize)].to_string());
    }
    AnnotatedTable {
        table: Table::new(
            format!("wiki-sky-{id}"),
            vec![Column::with_name("constellation", cons), Column::with_name("best month", months)],
        ),
        col_types: vec![g.ty(&["astronomy.constellation"]), g.ty(&["time.month"])],
        relations: vec![relation(1, g.rel("astronomy.constellation.best_visible"))],
    }
}

const SCHEMAS: &[(SchemaFn, f32)] = &[
    (film_table, 2.0),
    (film_story_table, 1.2),
    (roster_table, 1.5),
    (person_table, 1.5),
    (city_table, 1.2),
    (music_table, 1.0),
    (football_table, 1.0),
    (book_table, 1.0),
    (baseball_table, 1.0),
    (airport_table, 0.8),
    (award_table, 0.8),
    (tv_table, 0.8),
    (election_table, 0.8),
    (university_table, 0.7),
    (river_table, 0.7),
    (monarch_table, 0.5),
    (language_table, 0.6),
    (invention_table, 0.4),
    (nature_table, 0.4),
    (sky_table, 0.4),
];

/// Generates the full WikiTable-style benchmark (tables + both vocabularies).
pub fn generate_wikitable(kb: &KnowledgeBase, cfg: &WikiTableConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut types = LabelVocab::new();
    let mut rels = LabelVocab::new();
    let total_weight: f32 = SCHEMAS.iter().map(|s| s.1).sum();
    let mut tables = Vec::with_capacity(cfg.n_tables);
    for id in 0..cfg.n_tables {
        // Weighted schema pick.
        let mut x = rng.gen_range(0.0..total_weight);
        let mut chosen = SCHEMAS[0].0;
        for &(f, w) in SCHEMAS {
            if x < w {
                chosen = f;
                break;
            }
            x -= w;
        }
        let rows = rng.gen_range(cfg.min_rows..=cfg.max_rows);
        let mut g = Gen { kb, types: &mut types, rels: &mut rels };
        let t = chosen(&mut g, &mut rng, rows, id);
        debug_assert!(t.validate().is_ok(), "{:?}", t.validate());
        tables.push(t);
    }
    let ds = Dataset { tables, type_vocab: types, rel_vocab: rels };
    ds.validate().expect("generated dataset must validate");
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::{KbConfig, KnowledgeBase};

    fn dataset() -> Dataset {
        let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
        generate_wikitable(&kb, &WikiTableConfig { n_tables: 300, ..Default::default() })
    }

    #[test]
    fn dataset_validates_and_has_expected_shape() {
        let ds = dataset();
        assert_eq!(ds.tables.len(), 300);
        assert!(ds.type_vocab.len() >= 30, "types: {}", ds.type_vocab.len());
        assert!(ds.rel_vocab.len() >= 25, "rels: {}", ds.rel_vocab.len());
        assert!(ds.n_relations() > 400);
        ds.validate().unwrap();
    }

    #[test]
    fn multi_label_columns_exist() {
        let ds = dataset();
        let multi =
            ds.tables.iter().flat_map(|t| t.col_types.iter()).filter(|ts| ts.len() >= 2).count();
        assert!(multi > 100, "expected many multi-label columns, got {multi}");
    }

    #[test]
    fn relations_emanate_from_subject_column() {
        let ds = dataset();
        for t in &ds.tables {
            for r in &t.relations {
                assert_eq!(r.subject_col, 0, "TURL-style: relations from column 0");
                assert!(r.object_col > 0);
            }
        }
    }

    #[test]
    fn table_10_classes_are_present() {
        let ds = dataset();
        for ty in [
            "music.artist",
            "music.genre",
            "music.writer",
            "american_football.football_coach",
            "american_football.football_conference",
            "american_football.football_team",
        ] {
            assert!(ds.type_vocab.id(ty).is_some(), "missing type {ty}");
        }
        for rel in [
            "film.film.production_companies",
            "film.film.produced_by",
            "film.film.story_by",
            "people.person.place_of_birth",
            "people.person.place_lived",
            "people.person.nationality",
        ] {
            assert!(ds.rel_vocab.id(rel).is_some(), "missing relation {rel}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = dataset();
        let b = dataset();
        for (x, y) in a.tables.iter().zip(b.tables.iter()) {
            assert_eq!(x.table.id, y.table.id);
            assert_eq!(x.col_types, y.col_types);
        }
    }

    #[test]
    fn person_columns_always_carry_base_person_type() {
        let ds = dataset();
        let person = ds.type_vocab.id("people.person").unwrap();
        for t in &ds.tables {
            for (ci, types) in t.col_types.iter().enumerate() {
                for name in ["film.director", "film.producer", "music.artist", "royalty.monarch"] {
                    if let Some(id) = ds.type_vocab.id(name) {
                        if types.contains(&id) {
                            assert!(
                                types.contains(&person),
                                "table {} col {ci}: {name} without people.person",
                                t.table.id
                            );
                        }
                    }
                }
            }
        }
    }
}
