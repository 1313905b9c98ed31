//! Shared infrastructure for the `repro` master binary and the bench bins:
//! the reproduction stage graph (selection + dependency ordering) and the
//! host-metadata block both `BENCH_*.json` artifacts are stamped with.
//!
//! The stage graph is deliberately data, not code: `repro` maps each
//! [`StageDef`] to its implementation, while the graph itself (names,
//! dependencies, canonical order) lives here where it can be unit-tested
//! without training a model or binding a socket.

use crate::Scale;

/// One stage of the reproduction pipeline.
#[derive(Debug)]
pub struct StageDef {
    /// The name `--only` selects it by.
    pub name: &'static str,
    /// Stages that must run first (transitive; resolved by
    /// [`select_stages`]).
    pub deps: &'static [&'static str],
    /// One-line description for `--help` and the summary table.
    pub about: &'static str,
}

/// The full pipeline in canonical execution order. `select_stages` always
/// returns a subsequence of this list, so stage implementations can assume
/// their dependencies ran earlier in the same process.
pub const STAGES: &[StageDef] = &[
    StageDef {
        name: "tables",
        deps: &[],
        about: "regenerate every paper table/figure output and diff against ci/expected/",
    },
    StageDef {
        name: "train",
        deps: &[],
        about: "fine-tune the default Doduo model and save an AnnotatorBundle checkpoint",
    },
    StageDef {
        name: "serve",
        deps: &["train"],
        about: "serve the trained checkpoint over HTTP; byte-identity + Table-3 checks",
    },
    StageDef {
        name: "bench",
        deps: &[],
        about: "re-run gemm and serve_load, rewriting BENCH_gemm.json and BENCH_serve.json",
    },
];

/// Looks up a stage by name.
pub fn stage(name: &str) -> Option<&'static StageDef> {
    STAGES.iter().find(|s| s.name == name)
}

/// Resolves a `--only` selection into the stages to run, in canonical
/// order, with dependencies included transitively. An empty selection
/// means the whole pipeline. Unknown names are an error listing the valid
/// ones.
pub fn select_stages(only: &[String]) -> Result<Vec<&'static StageDef>, String> {
    if only.is_empty() {
        return Ok(STAGES.iter().collect());
    }
    let mut wanted: Vec<&'static str> = Vec::new();
    let mut queue: Vec<&str> = Vec::new();
    for name in only {
        let s = stage(name).ok_or_else(|| {
            format!(
                "unknown stage {name:?} (stages: {})",
                STAGES.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
            )
        })?;
        queue.push(s.name);
    }
    while let Some(name) = queue.pop() {
        if !wanted.contains(&name) {
            wanted.push(name);
            let s = stage(name).expect("queued names are valid");
            queue.extend(s.deps.iter().copied());
        }
    }
    Ok(STAGES.iter().filter(|s| wanted.contains(&s.name)).collect())
}

/// The host-metadata block stamped into every bench artifact, so a
/// committed curve is self-describing: a 1-core container's numbers can no
/// longer masquerade as the 4-vCPU CI runner's (or vice versa).
#[derive(Clone, Debug, PartialEq)]
pub struct HostMeta {
    /// Logical cores visible to the process.
    pub cores: usize,
    /// `std::env::consts::ARCH` of the measuring binary.
    pub arch: String,
    /// Runtime-detected SIMD features the kernel layer dispatches on
    /// (comma-separated; `"none"` when nothing relevant is available).
    pub target_features: String,
    /// Short git commit of the working tree — with a `-dirty` suffix when
    /// the tree has uncommitted changes, since the numbers then belong to
    /// no commit — or `"unknown"` outside a repository.
    pub commit: String,
    /// The `--scale` the numbers were measured at.
    pub scale: &'static str,
}

impl HostMeta {
    /// Detects the current host's metadata for a run at `scale`.
    pub fn detect(scale: Scale) -> HostMeta {
        HostMeta {
            cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            arch: std::env::consts::ARCH.to_string(),
            target_features: detect_target_features(),
            commit: detect_commit(),
            scale: match scale {
                Scale::Quick => "quick",
                Scale::Full => "full",
            },
        }
    }

    /// Renders the block as a JSON object (no surrounding key).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"arch\": \"{}\", \"target_features\": \"{}\", \
             \"commit\": \"{}\", \"scale\": \"{}\"}}",
            self.cores, self.arch, self.target_features, self.commit, self.scale
        )
    }

    /// Renders the whole artifact line: `  "host": {...},\n` — what the
    /// bench bins splice into their `BENCH_*.json` right after `"seed"`.
    pub fn json_line(&self) -> String {
        format!("  \"host\": {},\n", self.to_json())
    }
}

/// The SIMD features a kernel tier dispatches on, in report order: `avx2`
/// and `fma` (together the AVX2 tier of `doduo_tensor::kernels::Tier`: the
/// f32 GEMM step is a fused multiply-add, and the int8 AVX2 kernel rides on
/// the same tier), `avx512f` (the f32 AVX-512 tier) and `avx512vnni` (the
/// int8 VNNI kernel).
fn detect_target_features() -> String {
    let mut features: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($feature:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($feature) {
                    features.push($feature);
                }
            )*};
        }
        probe!("avx2", "fma", "avx512f", "avx512vnni");
    }
    if features.is_empty() {
        "none".to_string()
    } else {
        features.join(",")
    }
}

/// Trimmed stdout of a successful `git` invocation in the working directory.
fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git").args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn detect_commit() -> String {
    match git(&["rev-parse", "--short", "HEAD"]).filter(|rev| !rev.is_empty()) {
        None => "unknown".to_string(),
        Some(rev) if git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()) => {
            format!("{rev}-dirty")
        }
        Some(rev) => rev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(stages: &[&StageDef]) -> Vec<&'static str> {
        stages.iter().map(|s| s.name).collect()
    }

    #[test]
    fn empty_selection_runs_everything_in_order() {
        let all = select_stages(&[]).expect("empty selection is valid");
        assert_eq!(names(&all), vec!["tables", "train", "serve", "bench"]);
    }

    #[test]
    fn selection_preserves_canonical_order() {
        let picked =
            select_stages(&["bench".to_string(), "tables".to_string()]).expect("valid names");
        assert_eq!(names(&picked), vec!["tables", "bench"]);
    }

    #[test]
    fn dependencies_are_pulled_in() {
        let picked = select_stages(&["serve".to_string()]).expect("valid name");
        assert_eq!(names(&picked), vec!["train", "serve"], "serve depends on train");
    }

    #[test]
    fn duplicate_selection_is_deduplicated() {
        let picked = select_stages(&["train".to_string(), "serve".to_string()]).expect("valid");
        assert_eq!(names(&picked), vec!["train", "serve"]);
    }

    #[test]
    fn unknown_stage_is_an_error_listing_valid_names() {
        // `check` was a stage until the bench bins validated their own output.
        for bad in ["deploy", "check"] {
            let err = select_stages(&["tables".to_string(), bad.to_string()]).unwrap_err();
            assert!(err.contains(bad), "error names the bad stage: {err}");
            assert!(err.contains("tables") && err.contains("serve"), "error lists stages: {err}");
        }
    }

    #[test]
    fn every_dependency_is_a_known_stage() {
        for s in STAGES {
            for d in s.deps {
                assert!(stage(d).is_some(), "{}: unknown dep {d}", s.name);
            }
        }
    }

    #[test]
    fn host_meta_detects_and_renders() {
        let h = HostMeta::detect(Scale::Quick);
        assert!(h.cores >= 1);
        assert_eq!(h.scale, "quick");
        let json = h.to_json();
        assert!(json.contains("\"cores\""));
        assert!(json.contains("\"target_features\""));
        assert!(json.contains("\"commit\""));
        assert!(json.contains("\"scale\": \"quick\""));
        assert!(h.json_line().starts_with("  \"host\": {"));
        assert!(h.json_line().ends_with("},\n"));
        assert_eq!(HostMeta::detect(Scale::Full).scale, "full");
        // The stamp names a commit only when the tree is that commit.
        if h.commit != "unknown" {
            let (rev, dirty) = match h.commit.strip_suffix("-dirty") {
                Some(rev) => (rev, true),
                None => (h.commit.as_str(), false),
            };
            assert!(rev.chars().all(|c| c.is_ascii_hexdigit()) && !rev.is_empty(), "{}", h.commit);
            let porcelain =
                git(&["status", "--porcelain"]).expect("rev-parse worked, so does this");
            assert_eq!(dirty, !porcelain.is_empty(), "{}: {porcelain:?}", h.commit);
        }
    }

    #[test]
    fn target_features_name_the_tiers_that_dispatch() {
        use doduo_tensor::kernels::Tier;
        let reported = detect_target_features();
        let has = |f: &str| reported.split(',').any(|r| r == f);
        // What the f32 stack runs on must be readable off the artifact.
        assert_eq!(has("avx2") && has("fma"), Tier::detect() >= Tier::Avx2, "{reported}");
        if Tier::detect() == Tier::Avx512 {
            assert!(has("avx512f"), "{reported}");
        }
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(has("avx512f"), std::arch::is_x86_feature_detected!("avx512f"));
            assert_eq!(has("avx512vnni"), std::arch::is_x86_feature_detected!("avx512vnni"));
            if Tier::detect_int8() == Tier::Avx512 {
                assert!(has("avx512vnni"), "{reported}");
            }
        }
        assert!(!reported.is_empty() && !reported.contains(' '), "a bare list: {reported:?}");
    }
}
