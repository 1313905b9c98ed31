//! `doduo-balance` — replicated serving front for `doduo-served`.
//!
//! Two entry modes:
//!
//! * `doduo-balance [options]` — spawn and supervise N replicas of the
//!   annotation daemon and balance client traffic across them.
//! * `doduo-balance replica <doduo-served args…>` — run the full
//!   `doduo-served` CLI in this process (the supervisor self-execs this to
//!   launch replicas, so a deployment needs only one binary).

use doduo_balance::{BalanceConfig, Balancer, SupervisorConfig};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    addr: String,
    replicas: usize,
    served_bin: Option<String>,
    backends: Vec<String>,
    pass_through: Vec<String>,
    per_replica_chaos: Vec<(usize, String)>,
    port_dir: Option<String>,
    port_file: Option<String>,
    max_inflight: usize,
    retry_rounds: u32,
    response_timeout_ms: u64,
    restart_budget: usize,
    restart_window_secs: u64,
    startup_deadline_secs: u64,
    seed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: doduo-balance (--checkpoint FILE | --synthetic quick|full) [options]\n\
         \n\
         replica fleet:\n\
           --replicas N            replica processes to supervise (default 2)\n\
           --served-bin PATH       spawn PATH instead of self-exec'ing\n\
                                   `doduo-balance replica`\n\
           --backend HOST:PORT     front an externally managed daemon instead of\n\
                                   spawning children (repeatable; disables the\n\
                                   supervisor)\n\
           --chaos-replica I:SPEC  inject faults into replica I only, e.g.\n\
                                   0:crash_after=40,seed=7 (repeatable)\n\
           --port-dir DIR          directory for replica port files\n\
                                   (default: a fresh dir under the temp dir)\n\
           --restart-budget N      respawns allowed per window before a slot is\n\
                                   marked permanently failed (default 5)\n\
           --restart-window-secs S sliding budget window (default 30)\n\
           --startup-deadline-secs S  kill a child not ready in S s (default 120)\n\
         \n\
         balancing:\n\
           --addr HOST:PORT        client-facing bind address (default\n\
                                   127.0.0.1:8878; port 0 = ephemeral)\n\
           --max-inflight N        shed with 503 + Retry-After beyond N\n\
                                   concurrently proxied requests (default 256)\n\
           --retry-rounds N        failover passes over the ready set (default 3)\n\
           --port-file FILE        write the bound client-facing address to FILE\n\
           --response-timeout-ms T per-read replica timeout; a first-byte timeout\n\
                                   fails over (default 30000)\n\
           --seed N                seed for retry/restart jitter (default 0)\n\
         \n\
         These replica flags pass through with their values: --checkpoint,\n\
         --synthetic, --seed-world (the replicas' --seed), --save-checkpoint,\n\
         --quant, --max-batch, --max-batch-tokens, --max-delay-ms, --threads\n\
         — see `doduo-balance replica --help`. Any other flag is an error.\n\
         \n\
         doduo-balance replica <args…>   run the doduo-served CLI in-process"
    );
    std::process::exit(2)
}

/// Flags forwarded to replicas that take a value (so pass-through parsing
/// knows to consume the next token too).
const PASS_THROUGH_WITH_VALUE: &[&str] = &[
    "--checkpoint",
    "--synthetic",
    "--seed-world",
    "--save-checkpoint",
    "--quant",
    "--max-batch",
    "--max-batch-tokens",
    "--max-delay-ms",
    "--threads",
];

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        addr: "127.0.0.1:8878".into(),
        replicas: 2,
        served_bin: None,
        backends: Vec::new(),
        pass_through: Vec::new(),
        per_replica_chaos: Vec::new(),
        port_dir: None,
        port_file: None,
        max_inflight: 256,
        retry_rounds: 3,
        response_timeout_ms: 30_000,
        restart_budget: 5,
        restart_window_secs: 30,
        startup_deadline_secs: 120,
        seed: 0,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => args.addr = value(&mut i),
            "--replicas" => args.replicas = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--served-bin" => args.served_bin = Some(value(&mut i)),
            "--backend" => args.backends.push(value(&mut i)),
            "--chaos-replica" => {
                let v = value(&mut i);
                let Some((idx, spec)) = v.split_once(':') else { usage() };
                let idx: usize = idx.parse().unwrap_or_else(|_| usage());
                args.per_replica_chaos.push((idx, spec.to_string()));
            }
            "--port-dir" => args.port_dir = Some(value(&mut i)),
            "--port-file" => args.port_file = Some(value(&mut i)),
            "--max-inflight" => {
                args.max_inflight = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--retry-rounds" => {
                args.retry_rounds = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--response-timeout-ms" => {
                args.response_timeout_ms = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--restart-budget" => {
                args.restart_budget = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--restart-window-secs" => {
                args.restart_window_secs = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--startup-deadline-secs" => {
                args.startup_deadline_secs = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--seed" => args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            flag if PASS_THROUGH_WITH_VALUE.contains(&flag) => {
                args.pass_through.push(flag.to_string());
                // `--seed` is the balancer's jitter seed; replicas get the
                // synthetic-world seed via `--seed-world`.
                if flag == "--seed-world" {
                    args.pass_through.pop();
                    args.pass_through.push("--seed".into());
                }
                args.pass_through.push(value(&mut i));
            }
            other => {
                eprintln!("unknown argument {other}");
                usage()
            }
        }
        i += 1;
    }
    if args.backends.is_empty()
        && !args.pass_through.iter().any(|f| f == "--checkpoint" || f == "--synthetic")
    {
        eprintln!("a model source (--checkpoint / --synthetic) is required to spawn replicas");
        usage()
    }
    if args.replicas == 0 && args.backends.is_empty() {
        eprintln!("--replicas must be at least 1");
        usage()
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Hidden replica mode: run the daemon CLI in-process and exit with its
    // code. Everything after `replica` is a doduo-served flag.
    if argv.first().map(String::as_str) == Some("replica") {
        std::process::exit(doduo_served::cli::run(&argv[1..]));
    }
    let args = parse_args(&argv);

    let supervisor = if args.backends.is_empty() {
        let (program, prefix_args) = match &args.served_bin {
            Some(bin) => (PathBuf::from(bin), Vec::new()),
            None => {
                let me = std::env::current_exe().unwrap_or_else(|e| {
                    eprintln!("[balance] cannot locate own executable: {e}");
                    std::process::exit(1)
                });
                (me, vec!["replica".to_string()])
            }
        };
        let port_dir = match &args.port_dir {
            Some(d) => PathBuf::from(d),
            None => std::env::temp_dir().join(format!("doduo-balance-{}", std::process::id())),
        };
        if let Err(e) = std::fs::create_dir_all(&port_dir) {
            eprintln!("[balance] cannot create port dir {}: {e}", port_dir.display());
            std::process::exit(1);
        }
        let mut per_replica_args: Vec<Vec<String>> = vec![Vec::new(); args.replicas];
        for (idx, spec) in &args.per_replica_chaos {
            if *idx >= args.replicas {
                eprintln!("[balance] --chaos-replica index {idx} out of range");
                std::process::exit(2);
            }
            per_replica_args[*idx].extend(["--chaos".to_string(), spec.clone()]);
        }
        Some(SupervisorConfig {
            prefix_args,
            common_args: args.pass_through.clone(),
            per_replica_args,
            port_dir,
            restart_budget: args.restart_budget,
            restart_window: Duration::from_secs(args.restart_window_secs),
            startup_deadline: Duration::from_secs(args.startup_deadline_secs),
            seed: args.seed,
            ..SupervisorConfig::new(program, args.replicas)
        })
    } else {
        None
    };

    let cfg = BalanceConfig {
        addr: args.addr.clone(),
        supervisor,
        static_backends: args.backends.clone(),
        max_inflight: args.max_inflight,
        retry_rounds: args.retry_rounds,
        response_timeout: Duration::from_millis(args.response_timeout_ms),
        seed: args.seed,
        ..BalanceConfig::default()
    };
    let balancer = match Balancer::bind(cfg) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("[balance] cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.port_file {
        // Write-then-rename so a polling harness never reads a torn
        // half-written address (same protocol as the replicas' port files).
        let tmp = format!("{path}.tmp");
        let write = std::fs::write(&tmp, format!("{}\n", balancer.addr()))
            .and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = write {
            eprintln!("[balance] cannot write port file {path}: {e}");
            std::process::exit(1);
        }
    }
    eprintln!(
        "[balance] listening on {} ({}; max inflight {}; {} retry rounds)",
        balancer.addr(),
        if args.backends.is_empty() {
            format!("supervising {} replica(s)", args.replicas)
        } else {
            format!("{} static backend(s)", args.backends.len())
        },
        args.max_inflight,
        args.retry_rounds,
    );
    match balancer.run() {
        Ok(()) => eprintln!("[balance] shut down cleanly"),
        Err(e) => {
            eprintln!("[balance] fatal: {e}");
            std::process::exit(1);
        }
    }
}
