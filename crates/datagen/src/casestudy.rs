//! Case-study data: the enterprise HR database of §7.
//!
//! The paper filters an in-production HR warehouse for "jobsearch" and
//! "review" tables — 10 tables, 50 columns — and clusters the columns into
//! 15 ground-truth groups (date, IP address, job title, two timestamp kinds,
//! counts, status, file path, browser, location, search term, rating,
//! company ID, review ID, user ID). We synthesize that exact shape: columns
//! of the same semantic cluster get *different names across tables* (the
//! paper's motivation: naming conventions drift between teams), so clustering
//! by name alone is unreliable while values carry the signal.

use crate::kb::KnowledgeBase;
use crate::names::{BROWSERS, JOB_TITLES, SEARCH_TERMS, STATUS_WORDS};
use doduo_table::{Column, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 15 ground-truth clusters of §7.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HrCluster {
    Date,
    IpAddress,
    JobTitle,
    TimestampUnix,
    TimestampHhmm,
    Counts,
    Status,
    FilePath,
    Browser,
    Location,
    SearchTerm,
    Rating,
    CompanyId,
    ReviewId,
    UserId,
}

pub const ALL_CLUSTERS: [HrCluster; 15] = [
    HrCluster::Date,
    HrCluster::IpAddress,
    HrCluster::JobTitle,
    HrCluster::TimestampUnix,
    HrCluster::TimestampHhmm,
    HrCluster::Counts,
    HrCluster::Status,
    HrCluster::FilePath,
    HrCluster::Browser,
    HrCluster::Location,
    HrCluster::SearchTerm,
    HrCluster::Rating,
    HrCluster::CompanyId,
    HrCluster::ReviewId,
    HrCluster::UserId,
];

impl HrCluster {
    /// Human-readable cluster label (the paper's ground-truth list).
    pub fn label(self) -> &'static str {
        match self {
            HrCluster::Date => "date",
            HrCluster::IpAddress => "IP address",
            HrCluster::JobTitle => "job title",
            HrCluster::TimestampUnix => "timestamp (unixtime)",
            HrCluster::TimestampHhmm => "timestamp (hhmm)",
            HrCluster::Counts => "counts",
            HrCluster::Status => "status",
            HrCluster::FilePath => "file path",
            HrCluster::Browser => "browser",
            HrCluster::Location => "location",
            HrCluster::SearchTerm => "search term",
            HrCluster::Rating => "rating",
            HrCluster::CompanyId => "company ID",
            HrCluster::ReviewId => "review ID",
            HrCluster::UserId => "user ID",
        }
    }

    /// Column names used by different teams for this cluster. The variety is
    /// the point: name-based matching must work across synonyms.
    fn name_pool(self) -> &'static [&'static str] {
        match self {
            HrCluster::Date => &["date", "created_date", "dt", "event_date"],
            HrCluster::IpAddress => &["ip", "ip_address", "client_ip", "remote_addr"],
            HrCluster::JobTitle => &["job_title", "title", "position_name", "role"],
            HrCluster::TimestampUnix => &["ts", "unix_time", "created_at_epoch", "event_ts"],
            HrCluster::TimestampHhmm => &["time", "hhmm", "clock_time", "time_of_day"],
            HrCluster::Counts => &["count", "num_events", "clicks", "impressions"],
            HrCluster::Status => &["status", "state", "review_status", "flag"],
            HrCluster::FilePath => &["path", "file_path", "resource", "asset_path"],
            HrCluster::Browser => &["browser", "user_agent_family", "client", "ua"],
            HrCluster::Location => &["location", "city", "job_location", "geo"],
            HrCluster::SearchTerm => &["search_term", "query", "keywords", "search_text"],
            HrCluster::Rating => &["rating", "stars", "score", "review_rating"],
            HrCluster::CompanyId => &["company_id", "employer_id", "comp_id", "org_id"],
            HrCluster::ReviewId => &["review_id", "rev_id", "feedback_id", "review_key"],
            HrCluster::UserId => &["user_id", "uid", "member_id", "account_id"],
        }
    }

    /// Generates one cell value of this cluster.
    fn gen_value(self, kb: &KnowledgeBase, rng: &mut StdRng) -> String {
        match self {
            HrCluster::Date => format!(
                "{}-{:02}-{:02}",
                rng.gen_range(2015..2023),
                rng.gen_range(1..13),
                rng.gen_range(1..29)
            ),
            HrCluster::IpAddress => format!(
                "{}.{}.{}.{}",
                rng.gen_range(1..256),
                rng.gen_range(0..256),
                rng.gen_range(0..256),
                rng.gen_range(1..255)
            ),
            HrCluster::JobTitle => JOB_TITLES[rng.gen_range(0..JOB_TITLES.len())].to_string(),
            HrCluster::TimestampUnix => rng.gen_range(1_500_000_000u64..1_700_000_000).to_string(),
            HrCluster::TimestampHhmm => {
                format!("{:02}:{:02}", rng.gen_range(0..24), rng.gen_range(0..60))
            }
            HrCluster::Counts => rng.gen_range(0..50_000u32).to_string(),
            HrCluster::Status => STATUS_WORDS[rng.gen_range(0..STATUS_WORDS.len())].to_string(),
            HrCluster::FilePath => format!(
                "/data/{}/{}.{}",
                ["logs", "exports", "uploads", "reports"][rng.gen_range(0..4usize)],
                ["summary", "batch", "profile", "index"][rng.gen_range(0..4usize)],
                ["csv", "json", "parquet"][rng.gen_range(0..3usize)]
            ),
            HrCluster::Browser => BROWSERS[rng.gen_range(0..BROWSERS.len())].to_string(),
            HrCluster::Location => kb.cities[rng.gen_range(0..kb.cities.len())].name.clone(),
            HrCluster::SearchTerm => SEARCH_TERMS[rng.gen_range(0..SEARCH_TERMS.len())].to_string(),
            HrCluster::Rating => format!("{:.1}", rng.gen_range(1.0..5.05)),
            HrCluster::CompanyId => format!("c{:06}", rng.gen_range(0..1_000_000)),
            HrCluster::ReviewId => format!("r{:08}", rng.gen_range(0..100_000_000)),
            HrCluster::UserId => format!("u{:07}", rng.gen_range(0..10_000_000)),
        }
    }
}

/// One case-study column with its ground-truth cluster.
#[derive(Clone, Debug)]
pub struct HrColumn {
    /// Which table it came from and its position there.
    pub table_idx: usize,
    pub col_idx: usize,
    pub cluster: HrCluster,
}

/// The §7 scenario: tables plus ground-truth cluster assignments.
#[derive(Clone, Debug)]
pub struct CaseStudy {
    pub tables: Vec<Table>,
    pub columns: Vec<HrColumn>,
}

/// The paper's shape: 10 tables of 4–6 columns (~50 columns), 8 rows each.
const N_TABLES: usize = 10;
const MIN_COLS: usize = 4;
const MAX_COLS: usize = 6;
const N_ROWS: usize = 8;

/// Generates the case-study tables. Every cluster appears in at least two
/// tables (otherwise clustering it would be trivial), and tables mix
/// "jobsearch" and "review" flavors as in the paper's keyword filter.
pub fn generate_case_study(kb: &KnowledgeBase, seed: u64) -> CaseStudy {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tables = Vec::with_capacity(N_TABLES);
    let mut columns = Vec::new();

    // Build a deck guaranteeing every cluster occurs >= 2 times, then pad
    // with random clusters.
    let total_cols: usize = (0..N_TABLES).map(|_| rng.gen_range(MIN_COLS..=MAX_COLS)).sum();
    let mut deck: Vec<HrCluster> = Vec::with_capacity(total_cols);
    for c in ALL_CLUSTERS {
        deck.push(c);
        deck.push(c);
    }
    while deck.len() < total_cols {
        deck.push(ALL_CLUSTERS[rng.gen_range(0..ALL_CLUSTERS.len())]);
    }
    for i in (1..deck.len()).rev() {
        let j = rng.gen_range(0..=i);
        deck.swap(i, j);
    }

    let mut deck_iter = deck.into_iter();
    for ti in 0..N_TABLES {
        let n_cols = rng.gen_range(MIN_COLS..=MAX_COLS);
        let flavor = if ti % 2 == 0 { "jobsearch" } else { "review" };
        let mut cols = Vec::with_capacity(n_cols);
        let mut used_names: Vec<String> = Vec::new();
        for ci in 0..n_cols {
            let Some(cluster) = deck_iter.next() else { break };
            let pool = cluster.name_pool();
            // Pick a name not yet used in this table.
            let mut name = pool[rng.gen_range(0..pool.len())].to_string();
            let mut tries = 0;
            while used_names.contains(&name) && tries < 8 {
                name = pool[rng.gen_range(0..pool.len())].to_string();
                tries += 1;
            }
            if used_names.contains(&name) {
                name = format!("{name}_{ci}");
            }
            used_names.push(name.clone());
            let values: Vec<String> =
                (0..N_ROWS).map(|_| cluster.gen_value(kb, &mut rng)).collect();
            cols.push(Column::with_name(name, values));
            columns.push(HrColumn { table_idx: ti, col_idx: ci, cluster });
        }
        tables.push(Table::new(format!("{flavor}_{ti}"), cols));
    }
    CaseStudy { tables, columns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::{KbConfig, KnowledgeBase};

    fn study() -> CaseStudy {
        let kb = KnowledgeBase::generate(&KbConfig::default(), 42);
        generate_case_study(&kb, 42)
    }

    #[test]
    fn shape_matches_the_paper() {
        let s = study();
        assert_eq!(s.tables.len(), 10);
        let n_cols: usize = s.tables.iter().map(|t| t.n_cols()).sum();
        assert!((40..=60).contains(&n_cols), "≈50 columns, got {n_cols}");
        assert_eq!(n_cols, s.columns.len());
    }

    #[test]
    fn every_cluster_appears_at_least_twice() {
        let s = study();
        for c in ALL_CLUSTERS {
            let n = s.columns.iter().filter(|h| h.cluster == c).count();
            assert!(n >= 2, "cluster {c:?} appears {n} times");
        }
    }

    #[test]
    fn same_cluster_uses_varied_names_across_tables() {
        let s = study();
        let mut names_per_cluster: std::collections::HashMap<HrCluster, Vec<String>> =
            std::collections::HashMap::new();
        for h in &s.columns {
            let name = s.tables[h.table_idx].columns[h.col_idx]
                .name
                .clone()
                .expect("case-study columns are named");
            names_per_cluster.entry(h.cluster).or_default().push(name);
        }
        // At least a third of clusters must use >1 distinct name.
        let varied = names_per_cluster
            .values()
            .filter(|names| {
                let uniq: std::collections::HashSet<&String> = names.iter().collect();
                uniq.len() > 1
            })
            .count();
        assert!(varied >= 5, "only {varied} clusters have name variety");
    }

    #[test]
    fn values_look_like_their_cluster() {
        let kb = KnowledgeBase::generate(&KbConfig::default(), 1);
        let mut rng = StdRng::seed_from_u64(2);
        let ip = HrCluster::IpAddress.gen_value(&kb, &mut rng);
        assert_eq!(ip.split('.').count(), 4);
        let ts = HrCluster::TimestampUnix.gen_value(&kb, &mut rng);
        assert!(ts.parse::<u64>().is_ok());
        let hhmm = HrCluster::TimestampHhmm.gen_value(&kb, &mut rng);
        assert_eq!(hhmm.len(), 5);
        assert_eq!(&hhmm[2..3], ":");
        let rating = HrCluster::Rating.gen_value(&kb, &mut rng);
        let r: f32 = rating.parse().unwrap();
        assert!((1.0..=5.1).contains(&r));
        let path = HrCluster::FilePath.gen_value(&kb, &mut rng);
        assert!(path.starts_with("/data/"));
    }

    #[test]
    fn table_names_carry_the_keyword_filter() {
        let s = study();
        for t in &s.tables {
            assert!(
                t.id.starts_with("jobsearch") || t.id.starts_with("review"),
                "table id {}",
                t.id
            );
        }
    }
}
