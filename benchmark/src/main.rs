//! The repo benchmark: six workloads, end-to-end metrics from untraced
//! runs, per-layer metrics from separate traced runs. See `README.md` in
//! this directory and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! doduo-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//! doduo-benchmark [--seed N] [--seconds S] [--trace] [--smoke]    all six, results under benchmark/out
//! doduo-benchmark --aa N [--seed N] [--seconds S]                 A/A self-check against the bounds
//! ```
//!
//! Two more modes are internal: `worker` runs one workload on an already
//! generated world (so that the generator's time and memory never count),
//! and `daemon` is `doduo-served`'s own command line (so that a daemon
//! workload can start the daemon from this one executable).

mod bulk;
mod common;
mod daemon;
mod finetune;
mod gauge;
mod host;
mod metrics;
mod replay;
mod report;
mod schedule;
mod staged;
mod stats;
mod trace;
mod world;

use common::{RunCfg, TRACE_TABLES};
use metrics::{is_workload, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use report::Request;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]\n\
         \x20                       [--smoke] [--aa N] [--out DIR]\n\
         \n\
         \x20 --workload NAME  run one workload and print one JSON result line;\n\
         \x20                  without it all six run and results go to benchmark/out\n\
         \x20 --seed N         seed of the generated world (default 1)\n\
         \x20 --seconds S      measured window per workload (default 15)\n\
         \x20 --trace [0|1]    the traced run: per-layer metrics, trace files\n\
         \x20 --smoke          1 s windows and 64-table traces, for a quick check\n\
         \x20 --aa N           two interleaved sets of N runs, checked against the bounds\n\
         \x20 --out DIR        where temporary worlds and results go (default benchmark/out)\n\
         \n\
         workloads: {}",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2)
}

/// `--key value` pairs and bare flags of a command line.
struct Args(Vec<String>);

impl Args {
    /// The value after `--key`, removed together with the key.
    fn take(&mut self, key: &str) -> Option<String> {
        let at = self.0.iter().position(|a| a == key)?;
        if at + 1 >= self.0.len() {
            usage();
        }
        self.0.remove(at);
        Some(self.0.remove(at))
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, key: &str) -> Option<T> {
        self.take(key).map(|v| v.parse().unwrap_or_else(|_| usage()))
    }

    /// A bare `--flag`, removed.
    fn flag(&mut self, key: &str) -> bool {
        match self.0.iter().position(|a| a == key) {
            Some(at) => {
                self.0.remove(at);
                true
            }
            None => false,
        }
    }

    /// `--trace`, `--trace 0` or `--trace 1`.
    fn trace(&mut self) -> bool {
        let Some(at) = self.0.iter().position(|a| a == "--trace") else { return false };
        self.0.remove(at);
        match self.0.get(at).map(String::as_str) {
            Some("0") => {
                self.0.remove(at);
                false
            }
            Some("1") => {
                self.0.remove(at);
                true
            }
            _ => true,
        }
    }

    fn finish(self) {
        if let Some(extra) = self.0.first() {
            eprintln!("unknown argument {extra}");
            usage();
        }
    }
}

/// The worker: one workload on the world in `--dir`, result on stdout.
fn worker(mut args: Args) -> i32 {
    let workload = args.take("--workload").unwrap_or_else(|| usage());
    let cfg = RunCfg {
        dir: PathBuf::from(args.take("--dir").unwrap_or_else(|| usage())),
        seed: args.take_parsed("--seed").unwrap_or(1),
        seconds: args.take_parsed("--seconds").unwrap_or(15.0),
        warm_s: args.take_parsed("--warm").unwrap_or(2.0),
        trace: args.trace(),
        trace_tables: args.take_parsed("--trace-tables").unwrap_or(TRACE_TABLES),
        trace_out: args.take("--trace-out").map(PathBuf::from),
        workload,
    };
    args.finish();
    let out: Outcome = match cfg.workload.as_str() {
        "serve_open" => daemon::run_open(&cfg),
        "serve_stream" => daemon::run_stream(&cfg),
        // The in-process workloads run, like the daemon, on the host's last
        // processor only: the gauge must be read where the work runs.
        "finetune" => {
            host::pin_to(host::Placement::of_host().measured_cpu);
            finetune::run(&cfg)
        }
        w => match bulk::Bulk::of(w) {
            Some(b) => {
                host::pin_to(host::Placement::of_host().measured_cpu);
                bulk::run(b, &cfg)
            }
            None => usage(),
        },
    };
    println!("{}", out.worker_line(if cfg.trace { PER_LAYER } else { END_TO_END }));
    0
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("daemon") => doduo_served::cli::run(&argv[1..]),
        Some("worker") => {
            argv.remove(0);
            worker(Args(argv))
        }
        _ => {
            let mut args = Args(argv);
            if args.flag("--help") || args.flag("-h") {
                usage();
            }
            let smoke = args.flag("--smoke");
            let mut req = Request::new(
                args.take_parsed("--seed").unwrap_or(1),
                args.take_parsed("--seconds").unwrap_or(if smoke { 1.0 } else { 15.0 }),
                args.trace(),
            );
            if !(req.seconds > 0.0 && req.seconds <= 60.0) {
                usage();
            }
            if smoke {
                req.trace_tables = 64;
            }
            if let Some(dir) = args.take("--out") {
                req.out_dir = PathBuf::from(dir);
            }
            let workload = args.take("--workload");
            let aa: Option<usize> = args.take_parsed("--aa");
            args.finish();
            match (workload, aa) {
                (Some(w), None) if is_workload(&w) => report::run_one(&w, &req),
                (None, Some(n)) => report::run_aa(n, &req),
                (None, None) => {
                    req.keep_traces = true;
                    report::run_all(&req)
                }
                _ => usage(),
            }
        }
    };
    std::process::exit(code)
}
