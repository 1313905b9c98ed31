//! `doduo-balance` — replicated serving front for `doduo-served`.
//!
//! Two entry modes:
//!
//! * `doduo-balance [options]` — spawn and supervise N replicas of the
//!   annotation daemon and balance client traffic across them.
//! * `doduo-balance replica <doduo-served args…>` — run the full
//!   `doduo-served` CLI in this process. The supervisor always self-execs
//!   this to launch replicas, so a deployment needs only one binary.

use doduo_balance::{BalanceConfig, Balancer, SupervisorConfig};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    addr: String,
    replicas: usize,
    pass_through: Vec<String>,
    per_replica_chaos: Vec<(usize, String)>,
    port_dir: Option<String>,
    port_file: Option<String>,
    response_timeout_ms: u64,
    restart_budget: usize,
    restart_window_secs: u64,
    seed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: doduo-balance (--checkpoint FILE | --synthetic quick|full) [options]\n\
         \n\
         replica fleet:\n\
           --replicas N            `doduo-balance replica` processes to supervise\n\
                                   (default 2)\n\
           --chaos-replica I:SPEC  inject faults into replica I only, e.g.\n\
                                   0:crash_after=40,seed=7 (repeatable)\n\
           --port-dir DIR          directory for replica port files\n\
                                   (default: a fresh dir under the temp dir)\n\
           --restart-budget N      respawns allowed per window before a slot is\n\
                                   marked permanently failed (default 5)\n\
           --restart-window-secs S sliding budget window (default 30)\n\
         \n\
         balancing:\n\
           --addr HOST:PORT        client-facing bind address (default\n\
                                   127.0.0.1:8878; port 0 = ephemeral)\n\
           --port-file FILE        write the bound client-facing address to FILE\n\
           --response-timeout-ms T per-read replica timeout; a first-byte timeout\n\
                                   fails over (default 30000)\n\
           --seed N                seed for retry/restart jitter (default 0)\n\
         \n\
         These replica flags pass through with their values: --checkpoint,\n\
         --synthetic, --save-checkpoint, --quant, --threads — see\n\
         `doduo-balance replica --help`. Any other flag is an error.\n\
         \n\
         doduo-balance replica <args…>   run the doduo-served CLI in-process"
    );
    std::process::exit(2)
}

/// Flags forwarded to replicas that take a value (so pass-through parsing
/// knows to consume the next token too).
const PASS_THROUGH_WITH_VALUE: &[&str] =
    &["--checkpoint", "--synthetic", "--save-checkpoint", "--quant", "--threads"];

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        addr: "127.0.0.1:8878".into(),
        replicas: 2,
        pass_through: Vec::new(),
        per_replica_chaos: Vec::new(),
        port_dir: None,
        port_file: None,
        response_timeout_ms: 30_000,
        restart_budget: 5,
        restart_window_secs: 30,
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
            "--chaos-replica" => {
                let v = value(&mut i);
                let Some((idx, spec)) = v.split_once(':') else { usage() };
                let idx: usize = idx.parse().unwrap_or_else(|_| usage());
                args.per_replica_chaos.push((idx, spec.to_string()));
            }
            "--port-dir" => args.port_dir = Some(value(&mut i)),
            "--port-file" => args.port_file = Some(value(&mut i)),
            "--response-timeout-ms" => {
                args.response_timeout_ms = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--restart-budget" => {
                args.restart_budget = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--restart-window-secs" => {
                args.restart_window_secs = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--seed" => args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            flag if PASS_THROUGH_WITH_VALUE.contains(&flag) => {
                args.pass_through.push(flag.to_string());
                args.pass_through.push(value(&mut i));
            }
            other => {
                eprintln!("unknown argument {other}");
                usage()
            }
        }
        i += 1;
    }
    if !args.pass_through.iter().any(|f| f == "--checkpoint" || f == "--synthetic") {
        eprintln!("a model source (--checkpoint / --synthetic) is required to spawn replicas");
        usage()
    }
    if args.replicas == 0 {
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

    let program = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("[balance] cannot locate own executable: {e}");
        std::process::exit(1)
    });
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
    let supervisor = SupervisorConfig {
        prefix_args: vec!["replica".to_string()],
        common_args: args.pass_through.clone(),
        per_replica_args,
        port_dir,
        restart_budget: args.restart_budget,
        restart_window: Duration::from_secs(args.restart_window_secs),
        seed: args.seed,
        ..SupervisorConfig::new(program, args.replicas)
    };

    let cfg = BalanceConfig {
        addr: args.addr.clone(),
        supervisor: Some(supervisor),
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
        "[balance] listening on {} (supervising {} replica(s))",
        balancer.addr(),
        args.replicas
    );
    match balancer.run() {
        Ok(()) => eprintln!("[balance] shut down cleanly"),
        Err(e) => {
            eprintln!("[balance] fatal: {e}");
            std::process::exit(1);
        }
    }
}
