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
//!
//! Each table shape is one `Schema` row of the `SCHEMAS` table: a header,
//! type labels and a relation from column 0 per column, a pool of KB
//! entities, and a row fn that renders one entity as the row's cells in
//! column order. One `build` makes every table from its schema, so column 0
//! is the subject and each later column has exactly one relation from it by
//! construction.

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

/// One table shape.
struct Schema {
    /// Table ids read `wiki-{name}-{i}`.
    name: &'static str,
    /// Relative frequency of the schema among generated tables.
    weight: f32,
    /// `(header, type labels, relation from column 0)` per column; column 0
    /// is the subject, so its relation is `""`.
    columns: &'static [(&'static str, &'static [&'static str], &'static str)],
    /// KB entity indices the table's subjects are sampled from.
    pool: fn(&KnowledgeBase) -> Vec<usize>,
    /// One row's cells, in column order, for the pool entity given.
    row: fn(&KnowledgeBase, &mut StdRng, usize) -> Vec<String>,
}

/// Type label sets that several schemas share.
const PERSON: &[&str] = &["people.person"];
const CITY: &[&str] = &["location.location", "location.citytown"];
const COUNTRY: &[&str] = &["location.location", "location.country"];
const COMPANY: &[&str] = &["business.company"];
const YEAR: &[&str] = &["time.year"];

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

const SCHEMAS: &[Schema] = &[
    // The Figure 2(a) table.
    Schema {
        name: "film",
        weight: 2.0,
        columns: &[
            ("film", &["film.film"], ""),
            ("director", &["people.person", "film.director"], "film.film.directed_by"),
            ("producer", &["people.person", "film.producer"], "film.film.produced_by"),
            ("country", COUNTRY, "film.film.country"),
        ],
        pool: |kb| (0..kb.films.len()).collect(),
        row: |kb, _, i| {
            let f = &kb.films[i];
            let names = |ids: &[usize]| {
                ids.iter().map(|&p| kb.person_name(p)).collect::<Vec<_>>().join(", ")
            };
            vec![
                f.title.clone(),
                names(&f.directors),
                names(&f.producers),
                kb.country_name(f.country).to_string(),
            ]
        },
    },
    Schema {
        name: "story",
        weight: 1.2,
        columns: &[
            ("film", &["film.film"], ""),
            ("story by", &["people.person", "film.writer"], "film.film.story_by"),
            ("production company", COMPANY, "film.film.production_companies"),
        ],
        pool: |kb| (0..kb.films.len()).collect(),
        row: |kb, _, i| {
            let f = &kb.films[i];
            vec![
                f.title.clone(),
                kb.person_name(f.story_by).to_string(),
                kb.companies[f.production_company].name.clone(),
            ]
        },
    },
    // The Figure 2(b) roster table.
    Schema {
        name: "roster",
        weight: 1.5,
        columns: &[
            ("player", &["people.person", "sports.pro_athlete"], ""),
            ("hometown", CITY, "people.person.place_of_birth"),
            (
                "team",
                &["sports.sports_team", "american_football.football_team"],
                "sports.pro_athlete.teams",
            ),
        ],
        pool: |kb| kb.people_with(Profession::FootballPlayer),
        row: |kb, _, i| {
            let p = &kb.people[i];
            vec![
                p.name.clone(),
                kb.city_name(p.birth_city).to_string(),
                kb.teams[p.team.expect("athletes have teams")].name.clone(),
            ]
        },
    },
    Schema {
        name: "person",
        weight: 1.5,
        columns: &[
            ("name", PERSON, ""),
            ("residence", CITY, "people.person.place_lived"),
            ("nationality", COUNTRY, "people.person.nationality"),
        ],
        pool: |kb| (0..kb.people.len()).collect(),
        row: |kb, _, i| {
            let p = &kb.people[i];
            vec![
                p.name.clone(),
                kb.city_name(p.lived_city).to_string(),
                kb.country_name(p.nationality).to_string(),
            ]
        },
    },
    Schema {
        name: "city",
        weight: 1.2,
        columns: &[
            ("city", CITY, ""),
            ("country", COUNTRY, "location.location.containedby"),
            ("population", &["topic.population"], "location.statistical_region.population"),
        ],
        pool: |kb| (0..kb.cities.len()).collect(),
        row: |kb, _, i| {
            let c = &kb.cities[i];
            vec![c.name.clone(), kb.country_name(c.country).to_string(), c.population.to_string()]
        },
    },
    // Table 10's music classes.
    Schema {
        name: "music",
        weight: 1.0,
        columns: &[
            ("artist", &["people.person", "music.artist"], ""),
            ("genre", &["music.genre"], "music.artist.genre"),
            ("songwriter", &["people.person", "music.writer"], "music.artist.songwriter"),
        ],
        pool: |kb| kb.people_with(Profession::MusicArtist),
        row: |kb, rng, i| {
            let writers = kb.people_with(Profession::MusicWriter);
            vec![
                kb.people[i].name.clone(),
                kb.genres[rng.gen_range(0..kb.genres.len())].to_string(),
                kb.people[writers[rng.gen_range(0..writers.len())]].name.clone(),
            ]
        },
    },
    // Table 10's football classes.
    Schema {
        name: "football",
        weight: 1.0,
        columns: &[
            ("team", &["sports.sports_team", "american_football.football_team"], ""),
            (
                "head coach",
                &["people.person", "american_football.football_coach"],
                "american_football.football_team.current_head_coach",
            ),
            (
                "conference",
                &["american_football.football_conference"],
                "american_football.football_team.conference",
            ),
        ],
        pool: |kb| (0..kb.teams.len()).filter(|&i| kb.teams[i].football).collect(),
        row: |kb, _, i| {
            let t = &kb.teams[i];
            vec![t.name.clone(), kb.person_name(t.coach).to_string(), t.conference.to_string()]
        },
    },
    Schema {
        name: "book",
        weight: 1.0,
        columns: &[
            ("title", &["book.book"], ""),
            ("author", &["people.person", "book.author"], "book.book.author"),
            ("year", YEAR, "book.book.first_published"),
        ],
        pool: |kb| (0..kb.books.len()).collect(),
        row: |kb, _, i| {
            let b = &kb.books[i];
            vec![b.title.clone(), kb.person_name(b.author).to_string(), b.year.to_string()]
        },
    },
    // Table 12's `position_s` relation.
    Schema {
        name: "baseball",
        weight: 1.0,
        columns: &[
            ("player", &["people.person", "baseball.baseball_player"], ""),
            ("position", &["sports.position"], "baseball.baseball_player.position_s"),
            ("team", &["sports.sports_team"], "sports.pro_athlete.teams"),
        ],
        pool: |kb| kb.people_with(Profession::BaseballPlayer),
        row: |kb, _, i| {
            let p = &kb.people[i];
            vec![
                p.name.clone(),
                p.position.clone().expect("players have positions"),
                kb.teams[p.team.expect("players have teams")].name.clone(),
            ]
        },
    },
    // Table 12's `nearby_airports`.
    Schema {
        name: "airport",
        weight: 0.8,
        columns: &[
            ("city", CITY, ""),
            ("airport", &["aviation.airport"], "location.location.nearby_airports"),
            ("country", COUNTRY, "location.location.containedby"),
        ],
        pool: |kb| (0..kb.cities.len()).filter(|&i| kb.cities[i].airport.is_some()).collect(),
        row: |kb, _, i| {
            let c = &kb.cities[i];
            vec![
                c.name.clone(),
                c.airport.clone().expect("filtered"),
                kb.country_name(c.country).to_string(),
            ]
        },
    },
    // Table 12's award relations.
    Schema {
        name: "award",
        weight: 0.8,
        columns: &[
            ("award", &["award.award"], ""),
            ("winner", PERSON, "award.award_honor.award_winner"),
            ("nominee", PERSON, "award.award.award_nominee"),
        ],
        pool: |kb| (0..kb.awards.len()).collect(),
        row: |kb, rng, i| {
            let a = &kb.awards[i];
            vec![
                a.name.clone(),
                kb.person_name(a.winner).to_string(),
                kb.person_name(a.nominees[rng.gen_range(0..a.nominees.len())]).to_string(),
            ]
        },
    },
    Schema {
        name: "tv",
        weight: 0.8,
        columns: &[
            ("program", &["tv.tv_program"], ""),
            ("country", COUNTRY, "tv.tv_program.country_of_origin"),
            ("company", COMPANY, "tv.tv_program.production_company"),
        ],
        pool: |kb| (0..kb.tv_programs.len()).collect(),
        row: |kb, _, i| {
            let t = &kb.tv_programs[i];
            vec![
                t.name.clone(),
                kb.country_name(t.country).to_string(),
                kb.companies[t.company].name.clone(),
            ]
        },
    },
    // Table 12's best-probed type.
    Schema {
        name: "election",
        weight: 0.8,
        columns: &[
            ("election", &["government.election"], ""),
            ("country", COUNTRY, "government.election.country"),
            ("year", YEAR, "government.election.date"),
        ],
        pool: |kb| (0..kb.elections.len()).collect(),
        row: |kb, _, i| {
            let e = &kb.elections[i];
            vec![e.name.clone(), kb.country_name(e.country).to_string(), e.year.to_string()]
        },
    },
    Schema {
        name: "university",
        weight: 0.7,
        columns: &[
            ("university", &["education.university"], ""),
            ("city", CITY, "education.university.city"),
        ],
        pool: |kb| (0..kb.universities.len()).collect(),
        row: |kb, _, i| {
            let u = &kb.universities[i];
            vec![u.name.clone(), kb.city_name(u.city).to_string()]
        },
    },
    Schema {
        name: "river",
        weight: 0.7,
        columns: &[
            ("river", &["geography.river"], ""),
            ("country", COUNTRY, "geography.river.basin_country"),
            ("length", &["measurement.length"], "geography.river.length"),
        ],
        pool: |kb| (0..kb.rivers.len()).collect(),
        row: |kb, _, i| {
            let r = &kb.rivers[i];
            vec![
                r.name.clone(),
                kb.country_name(r.country).to_string(),
                format!("{} km", r.length_km),
            ]
        },
    },
    // Table 12's worst-probed types.
    Schema {
        name: "monarch",
        weight: 0.5,
        columns: &[
            ("monarch", &["people.person", "royalty.monarch"], ""),
            ("kingdom", &["royalty.kingdom"], "royalty.monarch.kingdom"),
            ("religion", &["religion.religion"], "people.person.religion"),
        ],
        pool: |kb| (0..kb.kingdoms.len()).collect(),
        row: |kb, rng, i| {
            let k = &kb.kingdoms[i];
            vec![
                kb.person_name(k.monarch).to_string(),
                k.name.clone(),
                kb.religions[rng.gen_range(0..kb.religions.len())].to_string(),
            ]
        },
    },
    // Table 12's `languages_spoken`.
    Schema {
        name: "language",
        weight: 0.6,
        columns: &[
            ("country", COUNTRY, ""),
            ("language", &["language.human_language"], "location.country.languages_spoken"),
        ],
        pool: |kb| (0..kb.countries.len()).collect(),
        row: |kb, _, i| vec![kb.countries[i].name.clone(), kb.countries[i].language.clone()],
    },
    Schema {
        name: "invention",
        weight: 0.4,
        columns: &[
            ("invention", &["law.invention"], ""),
            ("inventor", PERSON, "law.invention.inventor"),
            ("year", YEAR, "law.invention.date"),
        ],
        pool: |kb| (0..kb.inventions.len()).collect(),
        row: |kb, _, i| {
            let inv = &kb.inventions[i];
            vec![inv.name.clone(), kb.person_name(inv.inventor).to_string(), inv.year.to_string()]
        },
    },
    // Where a species is found: fills the `biology.organism` probing class.
    Schema {
        name: "nature",
        weight: 0.4,
        columns: &[
            ("species", &["biology.organism"], ""),
            ("range", COUNTRY, "biology.organism.found_in"),
        ],
        pool: |kb| (0..kb.organisms.len()).collect(),
        row: |kb, rng, i| {
            vec![
                format!("the {}", kb.organisms[i]),
                kb.countries[rng.gen_range(0..kb.countries.len())].name.clone(),
            ]
        },
    },
    // Sky observations: fills the `astronomy.constellation` probing class.
    Schema {
        name: "sky",
        weight: 0.4,
        columns: &[
            ("constellation", &["astronomy.constellation"], ""),
            ("best month", &["time.month"], "astronomy.constellation.best_visible"),
        ],
        pool: |kb| (0..kb.constellations.len()).collect(),
        row: |kb, rng, i| {
            vec![
                kb.constellations[i].to_string(),
                MONTHS[rng.gen_range(0..MONTHS.len())].to_string(),
            ]
        },
    },
];

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

/// Appends table `ds.tables.len()` of `schema`, `rows` rows long, to `ds`.
/// Interns every column's types, then the relations, in column order.
fn build(ds: &mut Dataset, schema: &Schema, kb: &KnowledgeBase, rng: &mut StdRng, rows: usize) {
    let header = schema.columns;
    let pool = (schema.pool)(kb);
    let mut cells = vec![Vec::with_capacity(rows); header.len()];
    for i in sample_distinct(rng, pool.len(), rows) {
        let row = (schema.row)(kb, rng, pool[i]);
        assert_eq!(row.len(), cells.len(), "schema {}: one cell per column", schema.name);
        cells.iter_mut().zip(row).for_each(|(column, cell)| column.push(cell));
    }
    let columns = header.iter().zip(cells).map(|(c, values)| Column::with_name(c.0, values));
    let table = Table::new(format!("wiki-{}-{}", schema.name, ds.tables.len()), columns.collect());
    let col_types =
        header.iter().map(|c| c.1.iter().map(|t| ds.type_vocab.intern(t)).collect()).collect();
    let relations = (1..header.len())
        .map(|object_col| {
            let relation = ds.rel_vocab.intern(header[object_col].2);
            RelAnnotation { subject_col: 0, object_col, relation }
        })
        .collect();
    let t = AnnotatedTable { table, col_types, relations };
    debug_assert!(t.validate().is_ok(), "{:?}", t.validate());
    ds.tables.push(t);
}

/// Generates the full WikiTable-style benchmark (tables + both vocabularies).
pub fn generate_wikitable(kb: &KnowledgeBase, cfg: &WikiTableConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let tables = Vec::with_capacity(cfg.n_tables);
    let mut ds = Dataset { tables, type_vocab: LabelVocab::new(), rel_vocab: LabelVocab::new() };
    let total_weight: f32 = SCHEMAS.iter().map(|s| s.weight).sum();
    for _ in 0..cfg.n_tables {
        // Weighted schema pick.
        let mut x = rng.gen_range(0.0..total_weight);
        let mut chosen = &SCHEMAS[0];
        for schema in SCHEMAS {
            if x < schema.weight {
                chosen = schema;
                break;
            }
            x -= schema.weight;
        }
        let rows = rng.gen_range(cfg.min_rows..=cfg.max_rows);
        build(&mut ds, chosen, kb, &mut rng, rows);
    }
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
    fn every_schema_relates_its_subject_to_each_later_column() {
        for s in SCHEMAS {
            assert!(s.columns.len() >= 2, "schema {}: a subject and an object", s.name);
            assert_eq!(s.columns[0].2, "", "schema {}: column 0 is the subject", s.name);
            for (c, col) in s.columns.iter().enumerate().skip(1) {
                assert!(!col.2.is_empty(), "schema {}: column {c} has no relation", s.name);
            }
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

    /// FNV-1a over every generated byte: ids, headers, cells, labels and
    /// both vocabularies in id order. Each field ends in a `0xff` byte, which
    /// no UTF-8 string contains, so field boundaries are part of the digest.
    #[test]
    fn every_schema_generates_its_pinned_bytes() {
        let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
        let cfg = WikiTableConfig { n_tables: 400, min_rows: 3, max_rows: 5, seed: 42 };
        let ds = generate_wikitable(&kb, &cfg);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes.iter().chain([0xff].iter()) {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for t in &ds.tables {
            eat(t.table.id.as_bytes());
            for c in &t.table.columns {
                eat(c.name.as_deref().unwrap_or("").as_bytes());
                c.values.iter().for_each(|v| eat(v.as_bytes()));
            }
            for types in &t.col_types {
                eat(&types.iter().flat_map(|id| id.to_le_bytes()).collect::<Vec<_>>());
            }
            for r in &t.relations {
                eat(&[r.subject_col as u32, r.object_col as u32, r.relation]
                    .iter()
                    .flat_map(|x| x.to_le_bytes())
                    .collect::<Vec<_>>());
            }
        }
        for vocab in [&ds.type_vocab, &ds.rel_vocab] {
            vocab.iter().for_each(|(_, name)| eat(name.as_bytes()));
        }
        assert_eq!(h, 0xd393_0703_b985_010b, "digest {h:#018x}");
        for name in [
            "film",
            "story",
            "roster",
            "person",
            "city",
            "music",
            "football",
            "book",
            "baseball",
            "airport",
            "award",
            "tv",
            "election",
            "university",
            "river",
            "monarch",
            "language",
            "invention",
            "nature",
            "sky",
        ] {
            let prefix = format!("wiki-{name}-");
            assert!(ds.tables.iter().any(|t| t.table.id.starts_with(&prefix)), "no {name} table");
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
