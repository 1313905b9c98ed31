//! The synthetic knowledge base.
//!
//! Stands in for Freebase + Wikipedia in the paper's pipeline (see
//! ARCHITECTURE.md): a closed world of entities and facts from which *both*
//! the LM pretraining corpus (so the language model genuinely stores this
//! knowledge) and the table benchmarks (so annotations are grounded in the
//! same facts) are generated. All generation is seeded and deterministic.

use crate::names::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Index types into the KB's entity vectors.
pub type PersonId = usize;
pub type CityId = usize;
pub type CountryId = usize;
pub type FilmId = usize;
pub type TeamId = usize;
pub type CompanyId = usize;

/// What a person does; people may hold several professions, and *full-name
/// collisions across professions are allowed* (the George Miller ambiguity
/// of §1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Profession {
    Director,
    Producer,
    ScreenWriter,
    Author,
    FootballPlayer,
    FootballCoach,
    BaseballPlayer,
    MusicArtist,
    MusicWriter,
    Monarch,
    Jockey,
}

pub const ALL_PROFESSIONS: [Profession; 11] = [
    Profession::Director,
    Profession::Producer,
    Profession::ScreenWriter,
    Profession::Author,
    Profession::FootballPlayer,
    Profession::FootballCoach,
    Profession::BaseballPlayer,
    Profession::MusicArtist,
    Profession::MusicWriter,
    Profession::Monarch,
    Profession::Jockey,
];

impl Profession {
    /// Professions that cannot be held together (a person plays one sport,
    /// so team/position assignments stay unambiguous).
    pub fn conflicts_with(self, other: Profession) -> bool {
        matches!(
            (self, other),
            (Profession::FootballPlayer, Profession::BaseballPlayer)
                | (Profession::BaseballPlayer, Profession::FootballPlayer)
        )
    }

    /// The English word used in corpus sentences and probing templates.
    pub fn word(self) -> &'static str {
        match self {
            Profession::Director => "director",
            Profession::Producer => "producer",
            Profession::ScreenWriter => "screenwriter",
            Profession::Author => "author",
            Profession::FootballPlayer => "athlete",
            Profession::FootballCoach => "coach",
            Profession::BaseballPlayer => "player",
            Profession::MusicArtist => "artist",
            Profession::MusicWriter => "songwriter",
            Profession::Monarch => "monarch",
            Profession::Jockey => "jockey",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Person {
    pub name: String,
    pub professions: Vec<Profession>,
    pub birth_city: CityId,
    pub lived_city: CityId,
    pub nationality: CountryId,
    /// Team membership for athletes.
    pub team: Option<TeamId>,
    /// Field position for football/baseball players.
    pub position: Option<String>,
    pub age: u32,
    pub gender: &'static str,
}

#[derive(Clone, Debug)]
pub struct City {
    pub name: String,
    pub country: CountryId,
    pub population: u64,
    pub elevation: i32,
    /// Name of the city's airport, if it has one.
    pub airport: Option<String>,
}

#[derive(Clone, Debug)]
pub struct Country {
    pub name: String,
    pub language: String,
}

#[derive(Clone, Debug)]
pub struct Film {
    pub title: String,
    pub directors: Vec<PersonId>,
    pub producers: Vec<PersonId>,
    pub story_by: PersonId,
    pub production_company: CompanyId,
    pub country: CountryId,
    pub year: u32,
    pub genre: &'static str,
}

#[derive(Clone, Debug)]
pub struct Team {
    pub name: String,
    pub city: CityId,
    pub conference: &'static str,
    pub coach: PersonId,
    /// `true` for football teams, `false` for baseball.
    pub football: bool,
}

#[derive(Clone, Debug)]
pub struct Company {
    pub name: String,
    pub country: CountryId,
}

#[derive(Clone, Debug)]
pub struct Book {
    pub title: String,
    pub author: PersonId,
    pub year: u32,
}

#[derive(Clone, Debug)]
pub struct University {
    pub name: String,
    pub city: CityId,
}

#[derive(Clone, Debug)]
pub struct River {
    pub name: String,
    pub country: CountryId,
    pub length_km: u32,
}

#[derive(Clone, Debug)]
pub struct Election {
    pub name: String,
    pub country: CountryId,
    pub year: u32,
}

#[derive(Clone, Debug)]
pub struct Award {
    pub name: String,
    pub winner: PersonId,
    pub nominees: Vec<PersonId>,
}

#[derive(Clone, Debug)]
pub struct TvProgram {
    pub name: String,
    pub country: CountryId,
    pub company: CompanyId,
}

#[derive(Clone, Debug)]
pub struct Kingdom {
    pub name: String,
    pub monarch: PersonId,
}

#[derive(Clone, Debug)]
pub struct Invention {
    pub name: String,
    pub inventor: PersonId,
    pub year: u32,
}

/// Knowledge-base sizing knobs.
#[derive(Clone, Debug)]
pub struct KbConfig {
    pub n_people: usize,
    pub n_cities: usize,
    pub n_films: usize,
    pub n_teams: usize,
    pub n_companies: usize,
    pub n_books: usize,
    pub n_universities: usize,
    pub n_rivers: usize,
    pub n_elections: usize,
    pub n_awards: usize,
    pub n_tv_programs: usize,
    pub n_inventions: usize,
}

impl Default for KbConfig {
    fn default() -> Self {
        KbConfig {
            n_people: 260,
            n_cities: 60,
            n_films: 110,
            n_teams: 32,
            n_companies: 36,
            n_books: 60,
            n_universities: 28,
            n_rivers: 24,
            n_elections: 20,
            n_awards: 14,
            n_tv_programs: 26,
            n_inventions: 10,
        }
    }
}

/// The closed world of entities and facts.
#[derive(Clone, Debug)]
pub struct KnowledgeBase {
    pub countries: Vec<Country>,
    pub cities: Vec<City>,
    pub people: Vec<Person>,
    pub films: Vec<Film>,
    pub teams: Vec<Team>,
    pub companies: Vec<Company>,
    pub books: Vec<Book>,
    pub universities: Vec<University>,
    pub rivers: Vec<River>,
    pub elections: Vec<Election>,
    pub awards: Vec<Award>,
    pub tv_programs: Vec<TvProgram>,
    pub kingdoms: Vec<Kingdom>,
    pub inventions: Vec<Invention>,
    pub religions: Vec<&'static str>,
    pub constellations: Vec<&'static str>,
    pub organisms: Vec<&'static str>,
    pub genres: Vec<&'static str>,
}

impl KnowledgeBase {
    /// Builds a deterministic KB from a seed.
    pub fn generate(cfg: &KbConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);

        let countries: Vec<Country> = COUNTRIES
            .iter()
            .map(|&(n, l)| Country { name: n.to_string(), language: l.to_string() })
            .collect();

        // Cities: unique prefix+suffix names, round-robin countries.
        let mut cities = Vec::with_capacity(cfg.n_cities);
        let mut used = HashSet::new();
        while cities.len() < cfg.n_cities {
            let name = format!(
                "{}{}",
                CITY_PREFIXES[rng.gen_range(0..CITY_PREFIXES.len())],
                CITY_SUFFIXES[rng.gen_range(0..CITY_SUFFIXES.len())]
            );
            if !used.insert(name.clone()) {
                continue;
            }
            let idx = cities.len();
            cities.push(City {
                name: name.clone(),
                country: idx % countries.len(),
                population: rng.gen_range(20_000..5_000_000),
                elevation: rng.gen_range(-10..2_400),
                airport: if idx % 3 == 0 {
                    Some(format!("{name} international airport"))
                } else {
                    None
                },
            });
        }

        // People: sampled first+last; collisions across professions allowed.
        let mut people = Vec::with_capacity(cfg.n_people);
        for _ in 0..cfg.n_people {
            let name = format!(
                "{} {}",
                FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
                LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())]
            );
            let n_prof = if rng.gen::<f32>() < 0.2 { 2 } else { 1 };
            let mut professions = Vec::with_capacity(n_prof);
            while professions.len() < n_prof {
                let p = ALL_PROFESSIONS[rng.gen_range(0..ALL_PROFESSIONS.len())];
                if !professions.contains(&p) && !professions.iter().any(|q| q.conflicts_with(p)) {
                    professions.push(p);
                }
            }
            let birth_city = rng.gen_range(0..cities.len());
            let lived_city =
                if rng.gen::<f32>() < 0.5 { birth_city } else { rng.gen_range(0..cities.len()) };
            people.push(Person {
                name,
                professions,
                birth_city,
                lived_city,
                nationality: cities[birth_city].country,
                team: None,
                position: None,
                age: rng.gen_range(18..80),
                gender: if rng.gen::<bool>() { "female" } else { "male" },
            });
        }

        let by_prof = |people: &[Person], p: Profession| -> Vec<PersonId> {
            people
                .iter()
                .enumerate()
                .filter(|(_, x)| x.professions.contains(&p))
                .map(|(i, _)| i)
                .collect()
        };
        // Ensure each profession has at least a handful of members.
        for prof in ALL_PROFESSIONS {
            while by_prof(&people, prof).len() < 6 {
                let i = rng.gen_range(0..people.len());
                if !people[i].professions.contains(&prof)
                    && !people[i].professions.iter().any(|q| q.conflicts_with(prof))
                {
                    people[i].professions.push(prof);
                }
            }
        }

        // Companies.
        let companies: Vec<Company> = (0..cfg.n_companies)
            .map(|_| Company {
                name: format!(
                    "{} {}",
                    LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())],
                    COMPANY_SUFFIXES[rng.gen_range(0..COMPANY_SUFFIXES.len())]
                ),
                country: rng.gen_range(0..countries.len()),
            })
            .collect();

        // Films.
        let directors = by_prof(&people, Profession::Director);
        let producers = by_prof(&people, Profession::Producer);
        let writers = by_prof(&people, Profession::ScreenWriter);
        let mut films = Vec::with_capacity(cfg.n_films);
        let mut used_titles = HashSet::new();
        while films.len() < cfg.n_films {
            let title = format!(
                "{} {}",
                FILM_ADJECTIVES[rng.gen_range(0..FILM_ADJECTIVES.len())],
                FILM_NOUNS[rng.gen_range(0..FILM_NOUNS.len())]
            );
            if !used_titles.insert(title.clone()) {
                continue;
            }
            let n_dir = if rng.gen::<f32>() < 0.25 { 2 } else { 1 };
            let n_prod = if rng.gen::<f32>() < 0.3 { 2 } else { 1 };
            films.push(Film {
                title,
                directors: (0..n_dir)
                    .map(|_| directors[rng.gen_range(0..directors.len())])
                    .collect(),
                producers: (0..n_prod)
                    .map(|_| producers[rng.gen_range(0..producers.len())])
                    .collect(),
                story_by: writers[rng.gen_range(0..writers.len())],
                production_company: rng.gen_range(0..companies.len()),
                country: rng.gen_range(0..countries.len()),
                year: rng.gen_range(1960..2022),
                genre: GENRES[rng.gen_range(0..GENRES.len())],
            });
        }

        // Teams (football + baseball) with coaches and rosters.
        let coaches = by_prof(&people, Profession::FootballCoach);
        let mut teams = Vec::with_capacity(cfg.n_teams);
        let mut used_team_names = HashSet::new();
        while teams.len() < cfg.n_teams {
            let city = rng.gen_range(0..cities.len());
            let name = format!(
                "{} {}",
                cities[city].name,
                TEAM_MASCOTS[rng.gen_range(0..TEAM_MASCOTS.len())]
            );
            if !used_team_names.insert(name.clone()) {
                continue;
            }
            teams.push(Team {
                name,
                city,
                conference: FOOTBALL_CONFERENCES[rng.gen_range(0..FOOTBALL_CONFERENCES.len())],
                coach: coaches[rng.gen_range(0..coaches.len())],
                football: teams.len() % 2 == 0,
            });
        }
        // Assign players to teams and give them positions.
        let footballers = by_prof(&people, Profession::FootballPlayer);
        let baseballers = by_prof(&people, Profession::BaseballPlayer);
        let football_teams: Vec<TeamId> =
            teams.iter().enumerate().filter(|(_, t)| t.football).map(|(i, _)| i).collect();
        let baseball_teams: Vec<TeamId> =
            teams.iter().enumerate().filter(|(_, t)| !t.football).map(|(i, _)| i).collect();
        for &p in &footballers {
            people[p].team = Some(football_teams[rng.gen_range(0..football_teams.len())]);
            people[p].position =
                Some(FOOTBALL_POSITIONS[rng.gen_range(0..FOOTBALL_POSITIONS.len())].to_string());
        }
        for &p in &baseballers {
            people[p].team = Some(baseball_teams[rng.gen_range(0..baseball_teams.len())]);
            people[p].position =
                Some(BASEBALL_POSITIONS[rng.gen_range(0..BASEBALL_POSITIONS.len())].to_string());
        }

        // Books.
        let authors = by_prof(&people, Profession::Author);
        let books: Vec<Book> = (0..cfg.n_books)
            .map(|_| Book {
                title: format!(
                    "the {} of {}",
                    FILM_NOUNS[rng.gen_range(0..FILM_NOUNS.len())],
                    CITY_PREFIXES[rng.gen_range(0..CITY_PREFIXES.len())]
                ),
                author: authors[rng.gen_range(0..authors.len())],
                year: rng.gen_range(1900..2022),
            })
            .collect();

        // Universities, rivers, elections.
        let universities: Vec<University> = (0..cfg.n_universities)
            .map(|i| {
                let city = rng.gen_range(0..cities.len());
                let name = if i % 2 == 0 {
                    format!("university of {}", cities[city].name)
                } else {
                    format!("{} state university", cities[city].name)
                };
                University { name, city }
            })
            .collect();
        let rivers: Vec<River> = (0..cfg.n_rivers)
            .map(|_| River {
                name: format!("{} river", CITY_PREFIXES[rng.gen_range(0..CITY_PREFIXES.len())]),
                country: rng.gen_range(0..countries.len()),
                length_km: rng.gen_range(40..3200),
            })
            .collect();
        let elections: Vec<Election> = (0..cfg.n_elections)
            .map(|_| {
                let country = rng.gen_range(0..countries.len());
                let year = rng.gen_range(1980..2022);
                Election {
                    name: format!("{year} {} general election", countries[country].name),
                    country,
                    year,
                }
            })
            .collect();

        // Awards with winners/nominees.
        let awards: Vec<Award> = (0..cfg.n_awards)
            .map(|_| {
                let n_nom = rng.gen_range(2..5);
                Award {
                    name: format!(
                        "golden {} award",
                        FILM_NOUNS[rng.gen_range(0..FILM_NOUNS.len())]
                    ),
                    winner: rng.gen_range(0..people.len()),
                    nominees: (0..n_nom).map(|_| rng.gen_range(0..people.len())).collect(),
                }
            })
            .collect();

        // TV programs.
        let tv_programs: Vec<TvProgram> = (0..cfg.n_tv_programs)
            .map(|_| TvProgram {
                name: format!(
                    "the {} {} show",
                    FILM_ADJECTIVES[rng.gen_range(0..FILM_ADJECTIVES.len())],
                    FILM_NOUNS[rng.gen_range(0..FILM_NOUNS.len())]
                ),
                country: rng.gen_range(0..countries.len()),
                company: rng.gen_range(0..companies.len()),
            })
            .collect();

        // Kingdoms ruled by monarchs; inventions with inventors.
        let monarchs = by_prof(&people, Profession::Monarch);
        let kingdoms: Vec<Kingdom> = KINGDOMS
            .iter()
            .map(|&name| Kingdom {
                name: name.to_string(),
                monarch: monarchs[rng.gen_range(0..monarchs.len())],
            })
            .collect();
        let inventions: Vec<Invention> = INVENTIONS
            .iter()
            .take(cfg.n_inventions)
            .map(|&name| Invention {
                name: name.to_string(),
                inventor: rng.gen_range(0..people.len()),
                year: rng.gen_range(1800..1990),
            })
            .collect();

        KnowledgeBase {
            countries,
            cities,
            people,
            films,
            teams,
            companies,
            books,
            universities,
            rivers,
            elections,
            awards,
            tv_programs,
            kingdoms,
            inventions,
            religions: RELIGIONS.to_vec(),
            constellations: CONSTELLATIONS.to_vec(),
            organisms: ORGANISMS.to_vec(),
            genres: GENRES.to_vec(),
        }
    }

    /// People holding a given profession.
    pub fn people_with(&self, p: Profession) -> Vec<PersonId> {
        self.people
            .iter()
            .enumerate()
            .filter(|(_, x)| x.professions.contains(&p))
            .map(|(i, _)| i)
            .collect()
    }

    /// Convenience accessors used throughout the generators.
    pub fn city_name(&self, id: CityId) -> &str {
        &self.cities[id].name
    }

    pub fn country_name(&self, id: CountryId) -> &str {
        &self.countries[id].name
    }

    pub fn person_name(&self, id: PersonId) -> &str {
        &self.people[id].name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = KnowledgeBase::generate(&KbConfig::default(), 42);
        let b = KnowledgeBase::generate(&KbConfig::default(), 42);
        assert_eq!(a.people.len(), b.people.len());
        for (x, y) in a.people.iter().zip(b.people.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.birth_city, y.birth_city);
        }
        for (x, y) in a.films.iter().zip(b.films.iter()) {
            assert_eq!(x.title, y.title);
            assert_eq!(x.directors, y.directors);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = KnowledgeBase::generate(&KbConfig::default(), 1);
        let b = KnowledgeBase::generate(&KbConfig::default(), 2);
        let same = a.people.iter().zip(b.people.iter()).filter(|(x, y)| x.name == y.name).count();
        assert!(same < a.people.len() / 2, "seeds should decorrelate: {same} identical");
    }

    #[test]
    fn every_profession_is_populated() {
        let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
        for p in ALL_PROFESSIONS {
            assert!(kb.people_with(p).len() >= 6, "profession {p:?} underpopulated");
        }
    }

    #[test]
    fn referential_integrity() {
        let kb = KnowledgeBase::generate(&KbConfig::default(), 7);
        for p in &kb.people {
            assert!(p.birth_city < kb.cities.len());
            assert!(p.nationality < kb.countries.len());
            assert_eq!(
                p.nationality, kb.cities[p.birth_city].country,
                "nationality = birth country"
            );
            if let Some(t) = p.team {
                assert!(t < kb.teams.len());
            }
        }
        for f in &kb.films {
            for &d in &f.directors {
                assert!(kb.people[d].professions.contains(&Profession::Director));
            }
            for &pr in &f.producers {
                assert!(kb.people[pr].professions.contains(&Profession::Producer));
            }
            assert!(kb.people[f.story_by].professions.contains(&Profession::ScreenWriter));
            assert!(f.production_company < kb.companies.len());
        }
        for t in &kb.teams {
            assert!(kb.people[t.coach].professions.contains(&Profession::FootballCoach));
            assert!(t.city < kb.cities.len());
        }
        for k in &kb.kingdoms {
            assert!(kb.people[k.monarch].professions.contains(&Profession::Monarch));
        }
    }

    #[test]
    fn athletes_have_team_and_position() {
        let kb = KnowledgeBase::generate(&KbConfig::default(), 9);
        for &p in &kb.people_with(Profession::FootballPlayer) {
            let person = &kb.people[p];
            assert!(person.team.is_some(), "{} has no team", person.name);
            assert!(person.position.is_some());
            let team = person.team.unwrap();
            assert!(kb.teams[team].football);
        }
        for &p in &kb.people_with(Profession::BaseballPlayer) {
            let person = &kb.people[p];
            assert!(person.team.is_some());
            assert!(person.position.is_some());
            assert!(!kb.teams[person.team.unwrap()].football);
        }
    }

    #[test]
    fn name_collisions_exist() {
        // The §1 ambiguity: at least one full name shared by 2+ people.
        let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
        let mut seen = std::collections::HashMap::new();
        for p in &kb.people {
            *seen.entry(p.name.as_str()).or_insert(0usize) += 1;
        }
        assert!(
            seen.values().any(|&c| c >= 2),
            "expected duplicated person names for the ambiguity experiments"
        );
    }
}
