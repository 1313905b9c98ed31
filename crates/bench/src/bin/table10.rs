//! Table 10 — per-class F1 on WikiTable for classes that are "less clearly
//! distinguishable": 6 column types (music / american-football families)
//! and 6 column relations (film / person families), Doduo vs Dosolo.
//!
//! The paper's claim: multi-task learning helps most on confusable classes
//! (e.g. music.writer 75.0 vs 40.0; place_lived 86.0 vs 77.7).

use doduo_bench::report::{pct, Report};
use doduo_bench::{ExpOptions, ModelSpec, TrainedModel, World};
use doduo_core::{Predictions, Task};
use doduo_eval::per_class_prf_multi;

fn main() {
    let opts = ExpOptions::from_args_for(
        "Table 10: per-class F1 on confusable WikiTable classes (Doduo vs Dosolo)",
    );
    let world = World::bootstrap(opts);
    let splits = world.wikitable();
    let cfg = world.train_config();

    let doduo = world.trained_model(
        "wiki-doduo",
        &ModelSpec::doduo(),
        &splits,
        &[Task::ColumnType, Task::ColumnRelation],
        true,
        &cfg,
    );
    let dosolo_type = world.trained_model(
        "wiki-dosolo-type",
        &ModelSpec::doduo(),
        &splits,
        &[Task::ColumnType],
        true,
        &cfg,
    );
    let dosolo_rel = world.trained_model(
        "wiki-dosolo-rel",
        &ModelSpec::doduo(),
        &splits,
        &[Task::ColumnRelation],
        true,
        &cfg,
    );

    // All three models are `ModelSpec::doduo()`, so each one's test
    // predictions are over the same prepared sequences.
    let n_types = splits.train.type_vocab.len();
    let n_rels = splits.train.rel_vocab.len();
    let per_class = |p: &Predictions, n: usize| per_class_prf_multi(&p.pred, &p.gold, n);
    let rel_f1 = |m: &TrainedModel| per_class(m.rels.as_ref().expect("relations"), n_rels);
    let doduo_ty_f1 = per_class(&doduo.types, n_types);
    let dosolo_ty_f1 = per_class(&dosolo_type.types, n_types);
    let doduo_rel_f1 = rel_f1(&doduo);
    let dosolo_rel_f1 = rel_f1(&dosolo_rel);

    let type_classes: &[(&str, &str, &str)] = &[
        ("music.artist", "84.0", "81.9"),
        ("music.genre", "93.3", "87.5"),
        ("music.writer", "75.0", "40.0"),
        ("american_football.football_coach", "70.6", "66.7"),
        ("american_football.football_conference", "44.4", "36.4"),
        ("american_football.football_team", "86.7", "86.4"),
    ];
    let rel_classes: &[(&str, &str, &str)] = &[
        ("film.film.production_companies", "81.0", "74.3"),
        ("film.film.produced_by", "43.9", "38.9"),
        ("film.film.story_by", "100.0", "90.9"),
        ("people.person.place_of_birth", "92.0", "90.8"),
        ("people.person.place_lived", "86.0", "77.7"),
        ("people.person.nationality", "100.0", "98.8"),
    ];

    let mut r = Report::new(
        "Table 10: per-class F1, Doduo vs Dosolo (paper vs measured)",
        &["class", "Doduo F1", "Dosolo F1", "paper Doduo", "paper Dosolo"],
    );
    let mut doduo_wins = 0usize;
    let mut total = 0usize;
    for &(name, p_doduo, p_dosolo) in type_classes {
        let id = splits.train.type_vocab.id(name).expect("class in vocab") as usize;
        r.row(&[
            name.into(),
            pct(doduo_ty_f1[id].f1),
            pct(dosolo_ty_f1[id].f1),
            p_doduo.into(),
            p_dosolo.into(),
        ]);
        doduo_wins += usize::from(doduo_ty_f1[id].f1 >= dosolo_ty_f1[id].f1);
        total += 1;
    }
    for &(name, p_doduo, p_dosolo) in rel_classes {
        let id = splits.train.rel_vocab.id(name).expect("relation in vocab") as usize;
        r.row(&[
            name.into(),
            pct(doduo_rel_f1[id].f1),
            pct(dosolo_rel_f1[id].f1),
            p_doduo.into(),
            p_dosolo.into(),
        ]);
        doduo_wins += usize::from(doduo_rel_f1[id].f1 >= dosolo_rel_f1[id].f1);
        total += 1;
    }
    r.check(
        format!("Doduo >= Dosolo on most confusable classes ({doduo_wins}/{total}; paper: 12/12)"),
        doduo_wins * 2 >= total,
    );
    r.print();
    eprintln!("[table10] total elapsed {:?}", world.elapsed());
}
