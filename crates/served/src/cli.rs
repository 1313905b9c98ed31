//! The daemon's command-line entry point, as a library function.
//!
//! `doduo-served`'s `main` is a one-liner over [`run`] so that other
//! binaries can embed the full daemon CLI — `doduo-balance replica
//! <args...>` execs *itself* and routes those args here, which lets the
//! balancer's tests spawn real replica processes without knowing where a
//! `doduo-served` binary lives (cargo only guarantees a package's own
//! binaries are built for its integration tests).

use crate::bootstrap::synthetic_world;
use crate::chaos::ChaosConfig;
use crate::validate::{check_label_equivalence, offline_response, offline_response_quant};
use crate::{ServeConfig, Server};
use doduo_core::AnnotatorBundle;
use doduo_serve::BatchConfig;

struct Args {
    addr: String,
    checkpoint: Option<String>,
    synthetic: Option<bool>, // Some(quick?)
    seed: u64,
    save_checkpoint: Option<String>,
    oneshot: Option<String>,
    compare_labels: Option<(String, String)>,
    quant: bool,
    threads: usize,
    chaos: Option<ChaosConfig>,
    port_file: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: doduo-served (--checkpoint FILE | --synthetic quick|full) [options]\n\
         \n\
         model source:\n\
           --checkpoint FILE       load an AnnotatorBundle checkpoint\n\
           --synthetic quick|full  build the deterministic seeded world\n\
           --seed N                seed for --synthetic (default 42)\n\
           --save-checkpoint FILE  write the loaded/built bundle, then continue\n\
         \n\
         serving:\n\
           --addr HOST:PORT        bind address (default 127.0.0.1:7878; port 0 = ephemeral)\n\
           --threads K             engine worker threads (default: cores - 1,\n\
                                   at least 1)\n\
           --quant int8|off        int8 inference (accuracy-gated; default off)\n\
           --port-file FILE        write the bound address to FILE after bind\n\
                                   (how a supervisor discovers an ephemeral port)\n\
           --chaos SPEC            deterministic fault injection, e.g.\n\
                                   crash_after=40,delay_ms=250,reset_prob=0.5,seed=7\n\
         \n\
         other:\n\
           --oneshot FILE          annotate request FILE offline, print the exact\n\
                                   /v1/annotate response bytes, and exit\n\
           --compare-labels A B    exit 0 iff response files A and B decode to\n\
                                   identical prediction sets (the int8 gate:\n\
                                   scores may differ, labels must not flip)"
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        checkpoint: None,
        synthetic: None,
        seed: 42,
        save_checkpoint: None,
        oneshot: None,
        compare_labels: None,
        quant: false,
        threads: doduo_tensor::default_threads(),
        chaos: None,
        port_file: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => args.addr = value(&mut i),
            "--checkpoint" => args.checkpoint = Some(value(&mut i)),
            "--synthetic" => {
                args.synthetic = Some(match value(&mut i).as_str() {
                    "quick" => true,
                    "full" => false,
                    _ => usage(),
                })
            }
            "--seed" => args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--save-checkpoint" => args.save_checkpoint = Some(value(&mut i)),
            "--oneshot" => args.oneshot = Some(value(&mut i)),
            "--compare-labels" => {
                let a = value(&mut i);
                let b = value(&mut i);
                args.compare_labels = Some((a, b));
            }
            "--quant" => {
                args.quant = match value(&mut i).as_str() {
                    "int8" => true,
                    "off" => false,
                    _ => usage(),
                }
            }
            "--threads" => args.threads = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--chaos" => {
                args.chaos = Some(ChaosConfig::parse(&value(&mut i)).unwrap_or_else(|e| {
                    eprintln!("[served] {e}");
                    usage()
                }))
            }
            "--port-file" => args.port_file = Some(value(&mut i)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other}");
                usage()
            }
        }
        i += 1;
    }
    if args.compare_labels.is_none() && args.checkpoint.is_some() == args.synthetic.is_some() {
        eprintln!("exactly one of --checkpoint / --synthetic is required");
        usage()
    }
    args
}

/// Runs the full `doduo-served` CLI over `argv` (flags only, no program
/// name) and returns the process exit code. May call `process::exit`
/// directly on usage errors, and *will* exit mid-serving when a `--chaos`
/// crash fault fires — callers are expected to be a process `main`.
pub fn run(argv: &[String]) -> i32 {
    let args = parse_args(argv);
    if let Some((a, b)) = &args.compare_labels {
        let read = |path: &str| {
            std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("[served] cannot read {path}: {e}");
                std::process::exit(1)
            })
        };
        match check_label_equivalence(&read(a), &read(b)) {
            Ok(n) => {
                eprintln!("[served] label sets identical across {n} table(s)");
                return 0;
            }
            Err(e) => {
                eprintln!("[served] label divergence: {e}");
                return 1;
            }
        }
    }
    let t0 = std::time::Instant::now();
    let bundle: std::sync::Arc<AnnotatorBundle> = if let Some(path) = &args.checkpoint {
        match AnnotatorBundle::load_from(path) {
            Ok(b) => std::sync::Arc::new(b),
            Err(e) => {
                eprintln!("[served] {e}");
                return 1;
            }
        }
    } else {
        let quick = args.synthetic.expect("synthetic set when checkpoint is not");
        synthetic_world(quick, args.seed).bundle
    };
    eprintln!(
        "[served] model ready in {:?}: vocab {}, {} types, {} relations",
        t0.elapsed(),
        bundle.tokenizer.vocab_size(),
        bundle.type_vocab.len(),
        bundle.rel_vocab.len(),
    );
    if let Some(path) = &args.save_checkpoint {
        if let Err(e) = bundle.save_to(path) {
            eprintln!("[served] cannot write checkpoint {path}: {e}");
            return 1;
        }
        eprintln!("[served] checkpoint written to {path}");
    }

    if let Some(path) = &args.oneshot {
        let body = match std::fs::read_to_string(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("[served] cannot read request {path}: {e}");
                return 1;
            }
        };
        // The offline reference path through the selected numeric tier —
        // the daemon's equivalence target for the same `--quant` setting.
        let resp = if args.quant {
            offline_response_quant(&bundle, &body)
        } else {
            offline_response(&bundle, &body)
        };
        match resp {
            Ok(r) => print!("{r}"),
            Err(e) => {
                eprintln!("[served] bad request body: {e}");
                return 1;
            }
        }
        return 0;
    }

    // The flush budgets are the engine's and the queue's defaults.
    let cfg = ServeConfig {
        addr: args.addr.clone(),
        engine: BatchConfig {
            threads: args.threads.max(1),
            quant: args.quant,
            ..BatchConfig::default()
        },
        chaos: args.chaos.clone(),
        ..ServeConfig::default()
    };
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[served] cannot bind {}: {e}", args.addr);
            return 1;
        }
    };
    if let Some(path) = &args.port_file {
        // Write-then-rename so a polling supervisor never reads a torn
        // half-written address.
        let tmp = format!("{path}.tmp");
        let write = std::fs::write(&tmp, format!("{}\n", server.addr()))
            .and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = write {
            eprintln!("[served] cannot write port file {path}: {e}");
            return 1;
        }
    }
    eprintln!(
        "[served] listening on {} ({}; {} engine threads{})",
        server.addr(),
        if args.quant { "int8" } else { "f32" },
        args.threads.max(1),
        if args.chaos.is_some() { "; CHAOS INJECTION ON" } else { "" },
    );
    server.run(bundle);
    eprintln!("[served] shut down cleanly");
    0
}
