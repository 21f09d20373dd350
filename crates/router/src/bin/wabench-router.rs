//! `wabench-router` — the sharding front-end daemon. Every command's
//! flags are declared once in [`COMMANDS`]; `wabench-router` with no
//! arguments prints them.
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

use obs::cli::{self, Args, Command, Flag};
use router::{BackendCfg, RouterConfig};
use svc::server::Client;

const SOCKET: Flag = Flag::value("--socket", "PATH", "router socket; required");

#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command::new("serve", &[
        SOCKET,
        Flag::value("--backend", "[NAME=]SOCK", "a shard (bare paths are named shard-N); at least one").many(),
        Flag::value("--watermark", "N", "aggregate queue depth at which submits are shed").default("64"),
        Flag::value("--retry-after-ms", "N", "back-off hint sent with a shed submit").default("250"),
        Flag::value("--probe-ms", "N", "health-probe interval").default("100"),
    ]),
    Command::new("status", &[SOCKET]),
    Command::new("shutdown", &[SOCKET]),
];

fn connect(a: &Args) -> Client {
    let socket = a.get("--socket", "a path", cli::path);
    Client::connect(&socket).unwrap_or_else(|e| {
        obs::error!("connect {}: {e}", socket.display());
        exit(1);
    })
}

fn cmd_serve(a: &Args) {
    let socket = a.get("--socket", "a path", cli::path);
    let mut backends: Vec<BackendCfg> = Vec::new();
    for v in a.all("--backend") {
        let (name, sock) = match v.split_once('=') {
            Some((n, s)) if !n.is_empty() && !s.is_empty() => (n.to_string(), s),
            Some(_) => a.fail(format!("bad backend spec {v:?} (use NAME=SOCKET)")),
            None => (format!("shard-{}", backends.len()), v),
        };
        if backends.iter().any(|b| b.name == name) {
            a.fail(format!("duplicate backend name {name:?}"));
        }
        backends.push(BackendCfg {
            name,
            socket: PathBuf::from(sock),
        });
    }
    if backends.is_empty() {
        a.fail("at least one --backend is required");
    }
    let probe_ms = a.get("--probe-ms", "a positive integer", cli::positive);
    let cfg = RouterConfig {
        backends,
        watermark: a.get("--watermark", "a positive integer", cli::positive),
        retry_after_ms: a.get("--retry-after-ms", "an integer", cli::number),
        probe_interval: Duration::from_millis(probe_ms),
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

fn cmd_status(a: &Args) {
    let report = connect(a).backends().unwrap_or_else(|e| {
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

fn cmd_shutdown(a: &Args) {
    connect(a).shutdown().unwrap_or_else(|e| {
        obs::error!("shutdown: {e}");
        exit(1);
    });
    println!("router stopped (shards left running)");
}

fn main() {
    let a = cli::parse("wabench-router", COMMANDS);
    match a.command() {
        "serve" => cmd_serve(&a),
        "status" => cmd_status(&a),
        "shutdown" => cmd_shutdown(&a),
        other => unreachable!("{other} is in COMMANDS but not dispatched"),
    }
}
