//! `wabench-router` — the sharding front-end daemon.
//!
//! ```text
//! wabench-router serve    --socket PATH --backend [NAME=]SOCK [--backend ...]
//!                         [--watermark N] [--retry-after-ms N] [--probe-ms N]
//! wabench-router status   --socket PATH
//! wabench-router shutdown --socket PATH
//! ```
//!
//! `serve` fronts every `--backend` shard behind one socket speaking
//! the ordinary `wabench-served` protocol: clients point `wabench-load`
//! (or any `svc::server::Client`) at the router socket and get
//! consistent-hash sharding, health-probed failover, and admission
//! control for free. See `docs/DEPLOYMENT.md` for topology and
//! `docs/OPERATIONS.md` for the runbook.
//!
//! `status` prints the routing table (the `Backends`
//! reply): per-shard health, queue depth, forwarded and failover
//! counts, plus the admission watermark and shed total.
//!
//! Exit codes: `0` clean shutdown, `1` server/socket error, `2` usage
//! error.

use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use router::{BackendCfg, RouterConfig};
use svc::server::Client;

fn usage() -> ! {
    obs::error!(
        "usage: wabench-router <serve|status|shutdown> [options]\n\
         \n\
         serve    --socket PATH --backend [NAME=]SOCK [--backend ...]\n\
         \u{20}        [--watermark N] [--retry-after-ms N] [--probe-ms N]\n\
         status   --socket PATH\n\
         shutdown --socket PATH\n\
         \n\
         common: --log error|warn|info|debug (overrides WABENCH_LOG)\n\
         A backend is NAME=SOCKET or a bare socket path (named shard-N);\n\
         at least one is required. See docs/DEPLOYMENT.md."
    );
    exit(2);
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    match args.get(*i) {
        Some(v) => v.clone(),
        None => {
            obs::error!("missing value for {flag}");
            usage();
        }
    }
}

struct Opts {
    socket: Option<PathBuf>,
    backends: Vec<BackendCfg>,
    watermark: u64,
    retry_after_ms: u32,
    probe_ms: u64,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        socket: None,
        backends: Vec::new(),
        watermark: RouterConfig::default().watermark,
        retry_after_ms: RouterConfig::default().retry_after_ms,
        probe_ms: RouterConfig::default().probe_interval.as_millis() as u64,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => o.socket = Some(PathBuf::from(take_value(args, &mut i, "--socket"))),
            "--backend" => {
                let v = take_value(args, &mut i, "--backend");
                let (name, sock) = match v.split_once('=') {
                    Some((n, s)) if !n.is_empty() && !s.is_empty() => (n.to_string(), s),
                    Some(_) => {
                        obs::error!("bad backend spec {v:?} (use NAME=SOCKET)");
                        usage();
                    }
                    None => (format!("shard-{}", o.backends.len()), v.as_str()),
                };
                o.backends.push(BackendCfg {
                    name,
                    socket: PathBuf::from(sock),
                });
            }
            "--watermark" => {
                o.watermark = take_value(args, &mut i, "--watermark")
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| {
                        obs::error!("--watermark needs a positive integer");
                        usage();
                    })
            }
            "--retry-after-ms" => {
                o.retry_after_ms = take_value(args, &mut i, "--retry-after-ms")
                    .parse()
                    .unwrap_or_else(|_| {
                        obs::error!("--retry-after-ms needs an integer");
                        usage();
                    })
            }
            "--probe-ms" => {
                o.probe_ms = take_value(args, &mut i, "--probe-ms")
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| {
                        obs::error!("--probe-ms needs a positive integer");
                        usage();
                    })
            }
            "--log" => {
                let v = take_value(args, &mut i, "--log");
                match obs::logger::Level::parse(&v) {
                    Some(lvl) => obs::logger::set_level(lvl),
                    None => {
                        obs::error!("unknown log level {v:?} (use error|warn|info|debug)");
                        usage();
                    }
                }
            }
            other => {
                obs::error!("unknown option {other:?}");
                usage();
            }
        }
        i += 1;
    }
    o
}

fn need_socket(o: &Opts) -> PathBuf {
    o.socket.clone().unwrap_or_else(|| {
        obs::error!("--socket is required");
        usage();
    })
}

fn cmd_serve(o: &Opts) {
    let socket = need_socket(o);
    if o.backends.is_empty() {
        obs::error!("at least one --backend is required");
        usage();
    }
    let mut seen = std::collections::HashSet::new();
    for b in &o.backends {
        if !seen.insert(&b.name) {
            obs::error!("duplicate backend name {:?}", b.name);
            usage();
        }
    }
    let cfg = RouterConfig {
        backends: o.backends.clone(),
        watermark: o.watermark,
        retry_after_ms: o.retry_after_ms,
        probe_interval: Duration::from_millis(o.probe_ms),
        ..RouterConfig::default()
    };
    obs::info!(
        "wabench-router: listening on {} ({} shards, watermark {})",
        socket.display(),
        cfg.backends.len(),
        cfg.watermark
    );
    for b in &cfg.backends {
        obs::info!("  shard {} at {}", b.name, b.socket.display());
    }
    if let Err(e) = router::serve(&socket, &cfg) {
        obs::error!("router error: {e}");
        exit(1);
    }
}

fn cmd_status(o: &Opts) {
    let socket = need_socket(o);
    let mut client = Client::connect(&socket).unwrap_or_else(|e| {
        obs::error!("connect {}: {e}", socket.display());
        exit(1);
    });
    let report = client.backends().unwrap_or_else(|e| {
        obs::error!("backends: {e}");
        exit(1);
    });
    println!(
        "admission: watermark {}, {} submits shed",
        report.watermark, report.shed
    );
    for b in &report.backends {
        println!(
            "shard {} [{}] at {}: queue {}, {} forwarded, {} failovers",
            b.name,
            if b.healthy { "healthy" } else { "DOWN" },
            b.socket,
            b.queue_depth,
            b.forwarded,
            b.failovers
        );
    }
}

fn cmd_shutdown(o: &Opts) {
    let socket = need_socket(o);
    let mut client = Client::connect(&socket).unwrap_or_else(|e| {
        obs::error!("connect {}: {e}", socket.display());
        exit(1);
    });
    client.shutdown().unwrap_or_else(|e| {
        obs::error!("shutdown: {e}");
        exit(1);
    });
    println!("router stopped (shards left running)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let opts = parse_opts(&args[1..]);
    match cmd.as_str() {
        "serve" => cmd_serve(&opts),
        "status" => cmd_status(&opts),
        "shutdown" => cmd_shutdown(&opts),
        _ => usage(),
    }
}
