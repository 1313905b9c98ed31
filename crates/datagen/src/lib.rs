//! # doduo-datagen
//!
//! Synthetic data substrate for the DODUO reproduction (ARCHITECTURE.md,
//! "Crate dependency graph"):
//!
//! * [`kb`] — a closed-world knowledge base (people, films, cities, teams,
//!   books, kingdoms, ...) standing in for Freebase, with the §1 name
//!   ambiguities reproduced by construction.
//! * [`corpus`] — verbalizes every KB fact into template sentences (the
//!   "Wikipedia" the LM pretrains on), with per-domain frequency control so
//!   the probing analysis (Tables 12-13) finds frequent domains probe well
//!   and rare ones poorly.
//! * [`wikitable`] — the WikiTable-style benchmark: multi-label Freebase
//!   types + relations from the subject column (§5.1), one schema table
//!   built by one function.
//! * [`viznet`] — the VizNet-style benchmark: the paper's 78 types with
//!   engineered numeric fractions (Table 5) and co-occurrence themes.
//! * [`casestudy`] — the §7 HR-database clustering scenario (10 tables,
//!   ~50 columns, 15 ground-truth clusters).
//!
//! Everything is deterministic in an explicit `u64` seed:
//! [`generate_corpus`]`(kb, seed)` and [`generate_case_study`]`(kb, seed)`
//! take it as their one setting; [`KnowledgeBase::generate`] takes it beside
//! a [`KbConfig`], and [`WikiTableConfig`], [`VizNetConfig`] and
//! [`DirtyConfig`] carry it as a field.

pub mod casestudy;
pub mod corpus;
pub mod dirty;
pub mod kb;
pub mod names;
pub mod viznet;
pub mod wikitable;

pub use casestudy::{generate_case_study, CaseStudy, HrCluster, ALL_CLUSTERS};
pub use corpus::generate_corpus;
pub use dirty::{corrupt_dataset, corruption_rate, DirtyConfig};
pub use kb::{KbConfig, KnowledgeBase, Profession};
pub use viznet::{
    gen_value, generate_viznet, multi_column_only, VizNetConfig, NUMERIC_STRESS_TYPES, VIZNET_TYPES,
};
pub use wikitable::{generate_wikitable, WikiTableConfig};
