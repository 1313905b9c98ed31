//! The host block stamped on every result, and the `/proc` readers behind
//! the CPU and memory metrics.

use std::path::Path;

/// What a result depends on besides the code: results whose host blocks
/// differ in anything but `commit` and `seed` are never compared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Host {
    pub nproc: usize,
    /// `doduo_tensor::default_threads()` on the one processor the program
    /// under test is confined to: what `BatchConfig::default()`,
    /// `TrainConfig::default()` and the daemon's `--threads` resolve to.
    pub engine_threads: usize,
    pub simd: String,
    pub commit: String,
    pub seed: u64,
}

impl Host {
    pub fn detect(seed: u64) -> Host {
        Host {
            nproc: nproc(),
            engine_threads: confined_engine_threads(),
            simd: simd_features(),
            commit: commit(Path::new(".")),
            seed,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"engine_threads\":{},\"simd\":\"{}\",\"commit\":\"{}\",\"seed\":{}}}",
            self.nproc, self.engine_threads, self.simd, self.commit, self.seed
        )
    }
}

/// Refuses to compare results measured on different hosts or thread
/// settings. `commit` and `seed` may differ: comparing commits is the
/// point, and a set of runs spans seeds.
pub fn ensure_comparable(a: &Host, b: &Host) -> Result<(), String> {
    let key = |h: &Host| (h.nproc, h.engine_threads, h.simd.clone());
    if key(a) == key(b) {
        Ok(())
    } else {
        Err(format!(
            "host blocks differ, results are not comparable: \
             nproc {} vs {}, engine threads {} vs {}, simd [{}] vs [{}]",
            a.nproc, b.nproc, a.engine_threads, b.engine_threads, a.simd, b.simd
        ))
    }
}

pub fn nproc() -> usize {
    cpus().len()
}

#[cfg(target_os = "linux")]
extern "C" {
    // From the C library std already links.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a processor set: room for 1,024 processors.
const SET_WORDS: usize = 16;

/// The processors the calling thread may run on, ascending. Where that
/// cannot be asked, as many as the standard library counts, numbered from 0.
pub fn cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut set = [0u64; SET_WORDS];
        // SAFETY: `set` is `SET_WORDS * 8` writable bytes.
        if unsafe { sched_getaffinity(0, SET_WORDS * 8, set.as_mut_ptr()) } == 0 {
            let allowed: Vec<usize> =
                (0..SET_WORDS * 64).filter(|c| set[c / 64] >> (c % 64) & 1 == 1).collect();
            if !allowed.is_empty() {
                return allowed;
            }
        }
    }
    (0..std::thread::available_parallelism().map_or(1, |n| n.get())).collect()
}

/// Confines the calling thread (and whatever it starts afterwards) to one
/// processor. Returns false where that is not possible; the benchmark then
/// runs unconfined.
pub fn pin_to(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        if cpu >= SET_WORDS * 64 {
            return false;
        }
        let mut set = [0u64; SET_WORDS];
        set[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `set` is `SET_WORDS * 8` readable bytes and outlives the call.
        unsafe { sched_setaffinity(0, SET_WORDS * 8, set.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

/// Where the two sides of a run are confined, so that the host gauge can be
/// read on the processor the measured work runs on: the program under test
/// on the last processor this process may use, the load generator of the
/// daemon workloads on the first (the same one on a single-processor host).
/// Ask before confining anything: a confined thread sees one processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    pub measured_cpu: usize,
    pub load_cpu: usize,
    /// Processors counted before anything was confined.
    pub nproc: usize,
}

impl Placement {
    pub fn of_host() -> Placement {
        let cpus = cpus();
        Placement { measured_cpu: cpus[cpus.len() - 1], load_cpu: cpus[0], nproc: cpus.len() }
    }
}

/// `doduo_tensor::default_threads()` as the confined program sees it.
fn confined_engine_threads() -> usize {
    let cpu = Placement::of_host().measured_cpu;
    std::thread::scope(|scope| {
        scope
            .spawn(move || {
                pin_to(cpu);
                doduo_tensor::default_threads()
            })
            .join()
            .expect("probe thread ran")
    })
}

fn simd_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut f = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            f.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vnni")
        {
            f.push("avx512vnni");
        }
        f.join("+")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

/// Short commit id read from `.git` under `root` without running git (the
/// bench checkout may not be a repository, and git would search upward).
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let full = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => std::fs::read_to_string(git.join(r)).ok().or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed.lines().find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_string()))
        }),
    };
    match full {
        Some(sha) if sha.trim().len() >= 7 => sha.trim()[..7].to_string(),
        _ => "unknown".into(),
    }
}

/// CPU time (user + system) a process has used so far, in seconds, from
/// `/proc/<pid>/stat`. The kernel reports clock ticks of 1/100 s.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set size (`VmHWM`) of a process in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host {
            nproc: 2,
            engine_threads: 1,
            simd: "avx2+fma".into(),
            commit: "abc1234".into(),
            seed: 1,
        }
    }

    #[test]
    fn mismatched_hosts_are_refused() {
        let a = host();
        assert!(ensure_comparable(&a, &a).is_ok());
        let other_commit = Host { commit: "fff0000".into(), seed: 9, ..host() };
        assert!(ensure_comparable(&a, &other_commit).is_ok(), "commit and seed may differ");
        for b in [
            Host { nproc: 4, ..host() },
            Host { engine_threads: 3, ..host() },
            Host { simd: "avx2+fma+avx512vnni".into(), ..host() },
        ] {
            let err = ensure_comparable(&a, &b).expect_err("different host must be refused");
            assert!(err.contains("not comparable"), "{err}");
        }
    }

    #[test]
    fn own_process_has_cpu_time_and_memory() {
        let me = std::process::id();
        assert!(cpu_seconds(me).expect("stat readable") >= 0.0);
        assert!(peak_rss_mb(me).expect("status readable") > 0.5);
    }
}
