//! Reactor front-end behavior a thread-per-connection server never had
//! to get right: pipelined frames (many requests in one write),
//! partial-frame reassembly across writes, and strict in-order replies
//! even when an earlier request parks (`Wait`) while a later one could
//! answer immediately.

#![cfg(unix)]

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use svc::job::{JobSpec, Scale};
use svc::proto::{Request, Response, PROTO_VERSION};
use svc::scheduler::{Config, RetryPolicy, Scheduler};
use svc::server::{serve, Client};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wabench-reactor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn start_server(socket: &Path, workers: usize) -> std::thread::JoinHandle<std::io::Result<()>> {
    start_server_with(
        socket,
        Config {
            workers,
            ..Config::default()
        },
    )
}

fn start_server_with(socket: &Path, cfg: Config) -> std::thread::JoinHandle<std::io::Result<()>> {
    let sched = Arc::new(Scheduler::start(cfg).expect("start scheduler"));
    let path = socket.to_path_buf();
    let handle = std::thread::spawn(move || serve(&path, sched));
    for _ in 0..400 {
        if let Ok(mut c) = Client::connect(socket) {
            if c.ping().is_ok() {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    handle
}

/// Length-prefixes a payload into one wire frame.
fn frame_payload(payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(4 + payload.len());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

fn frame(req: &Request) -> Vec<u8> {
    frame_payload(&req.encode())
}

/// Reads exactly one response frame off a raw stream.
fn read_response(stream: &mut UnixStream) -> Response {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("frame length");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("frame payload");
    Response::decode(&payload).expect("decode response")
}

fn shutdown(socket: &Path, server: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut c = Client::connect(socket).expect("connect for shutdown");
    c.shutdown().expect("shutdown");
    server.join().expect("join").expect("serve");
}

#[test]
fn pipelined_requests_in_one_write_get_ordered_replies() {
    let dir = tmp_dir("pipeline");
    let socket = dir.join("svc.sock");
    let server = start_server(&socket, 1);

    let mut stream = UnixStream::connect(&socket).expect("connect");
    // Two Pings and a Stats in a single write: a blocking
    // read_frame/handle/write_frame loop would also survive this, but
    // only because the socket buffered it — the reactor must carve all
    // three out of one readiness event and answer in order.
    let mut batch = frame(&Request::Ping);
    batch.extend_from_slice(&frame(&Request::Stats));
    batch.extend_from_slice(&frame(&Request::Ping));
    stream.write_all(&batch).expect("pipelined write");

    assert!(matches!(read_response(&mut stream), Response::Pong));
    assert!(matches!(read_response(&mut stream), Response::Stats(_)));
    assert!(matches!(read_response(&mut stream), Response::Pong));

    shutdown(&socket, server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partial_frames_reassemble_across_writes() {
    let dir = tmp_dir("partial");
    let socket = dir.join("svc.sock");
    let server = start_server(&socket, 1);

    let mut stream = UnixStream::connect(&socket).expect("connect");
    let ping = frame(&Request::Ping);
    let stats = frame(&Request::Stats);

    // Dribble the first frame byte-by-byte: the reactor sees many
    // readiness events, none containing a complete frame until the
    // last.
    for b in &ping[..ping.len() - 1] {
        stream.write_all(&[*b]).expect("dribble");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Finish frame one and immediately start frame two, splitting it
    // mid-length-prefix — the nastiest boundary.
    let mut tail = vec![ping[ping.len() - 1]];
    tail.extend_from_slice(&stats[..2]);
    stream.write_all(&tail).expect("tail + partial prefix");
    std::thread::sleep(Duration::from_millis(10));
    stream.write_all(&stats[2..]).expect("rest of second frame");

    assert!(matches!(read_response(&mut stream), Response::Pong));
    assert!(matches!(read_response(&mut stream), Response::Stats(_)));

    shutdown(&socket, server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parked_wait_holds_later_replies_in_order() {
    let dir = tmp_dir("ordered");
    let socket = dir.join("svc.sock");
    let server = start_server(&socket, 2);

    let spec = short_job();
    let mut stream = UnixStream::connect(&socket).expect("connect");
    // Submit, then pipeline Wait(id)+Ping before the job can possibly
    // finish... except we don't know the id until Submitted comes back,
    // so submit first, read the id, then pipeline Wait + Ping in one
    // write. The Wait parks (or resolves) server-side; the Pong must
    // not overtake the Result.
    stream
        .write_all(&frame(&Request::Submit(spec, Default::default())))
        .expect("submit");
    let id = match read_response(&mut stream) {
        Response::Submitted(id) => id,
        other => panic!("expected Submitted, got {other:?}"),
    };
    let mut batch = frame(&Request::Wait(id));
    batch.extend_from_slice(&frame(&Request::Ping));
    stream.write_all(&batch).expect("wait + ping");

    match read_response(&mut stream) {
        Response::Result(res) => assert_eq!(res.id, id),
        other => panic!("Result must come before Pong, got {other:?}"),
    }
    assert!(matches!(read_response(&mut stream), Response::Pong));

    shutdown(&socket, server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An oversized length prefix must drop the connection, not hang it or
/// take the server down.
#[test]
fn oversized_frame_drops_only_that_connection() {
    let dir = tmp_dir("oversized");
    let socket = dir.join("svc.sock");
    let server = start_server(&socket, 1);

    let mut bad = UnixStream::connect(&socket).expect("connect");
    bad.write_all(&(u32::MAX).to_le_bytes()).expect("bad prefix");
    let mut buf = [0u8; 1];
    // The server closes on us: read returns Ok(0) (EOF).
    bad.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    assert_eq!(bad.read(&mut buf).expect("read after bad frame"), 0);

    // The server itself is still healthy.
    let mut c = Client::connect(&socket).expect("connect after bad conn");
    c.ping().expect("ping after bad conn");
    drop(c);

    shutdown(&socket, server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frame from a different build (version head one behind) is refused
/// with an `Err` naming both versions — per frame, not by dropping the
/// connection: the same stream then answers a well-versioned `Ping`.
#[test]
fn version_mismatch_is_refused_per_frame() {
    let dir = tmp_dir("version");
    let socket = dir.join("svc.sock");
    let server = start_server(&socket, 1);

    let mut stale = Request::Ping.encode();
    stale[..2].copy_from_slice(&(PROTO_VERSION - 1).to_le_bytes());
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream.write_all(&frame_payload(&stale)).expect("stale frame");
    match read_response(&mut stream) {
        Response::Err(msg) => {
            assert!(msg.contains(&format!("v{}", PROTO_VERSION - 1)), "{msg}");
            assert!(msg.contains(&format!("v{PROTO_VERSION}")), "{msg}");
        }
        other => panic!("expected Err, got {other:?}"),
    }
    stream.write_all(&frame(&Request::Ping)).expect("ping");
    assert!(matches!(read_response(&mut stream), Response::Pong));

    shutdown(&socket, server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A short job: fast enough to run hundreds in a test, slow enough
/// (compile + interpret) that a `Wait` sent right after `Submitted`
/// finds it unfinished and parks.
fn short_job() -> JobSpec {
    JobSpec::exec(
        "trisolv",
        engines::EngineKind::Wasm3,
        wacc::OptLevel::O0,
        Scale::Test,
    )
}

fn submitted_id(stream: &mut UnixStream) -> u64 {
    match read_response(stream) {
        Response::Submitted(id) => id,
        other => panic!("expected Submitted, got {other:?}"),
    }
}

/// Reads the `Result` for job `id` and returns how long after the job
/// finished it arrived: client receipt minus the worker's `done_ns`,
/// both on the process-wide trace clock the in-process server shares.
fn reply_delay_ns(stream: &mut UnixStream, id: u64) -> u64 {
    match read_response(stream) {
        Response::Result(res) => {
            let recv_ns = obs::trace::now_ns();
            assert_eq!(res.id, id, "Wait answered out of order");
            recv_ns.saturating_sub(res.trace.done_ns)
        }
        other => panic!("expected Result for job {id}, got {other:?}"),
    }
}

/// A parked `Wait` is answered when the worker's completion wakes the
/// reactor, not when a poll timer next fires. With one quiet
/// connection nothing else wakes the loop, so a timer-driven recheck
/// would put the median reply delay near half its period.
#[test]
fn parked_wait_resolves_on_completion_not_a_tick() {
    let dir = tmp_dir("wake");
    let socket = dir.join("svc.sock");
    let server = start_server(&socket, 1);

    let mut stream = UnixStream::connect(&socket).expect("connect");
    let mut delays: Vec<u64> = (0..30)
        .map(|_| {
            stream
                .write_all(&frame(&Request::Submit(short_job(), Default::default())))
                .expect("submit");
            let id = submitted_id(&mut stream);
            stream.write_all(&frame(&Request::Wait(id))).expect("wait");
            reply_delay_ns(&mut stream, id)
        })
        .collect();
    delays.sort_unstable();
    let median_us = delays[delays.len() / 2] / 1000;
    assert!(
        median_us < 500,
        "median parked-Wait reply delay {median_us} µs: not woken on completion \
         (sorted delays ns: {delays:?})"
    );

    shutdown(&socket, server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job for a benchmark the suite lacks: it fails at lookup, so it
/// completes (and wakes the reactor) within microseconds of pickup.
fn instant_job() -> JobSpec {
    JobSpec::exec(
        "no-such-benchmark",
        engines::EngineKind::Wamr,
        wacc::OptLevel::O0,
        Scale::Test,
    )
}

/// Lost-wake-up stress: two workers complete jobs for four connections,
/// each keeping a `Wait` in flight with the next `Submit` pipelined
/// behind it. Instant jobs make completion wakes arrive tens of
/// microseconds apart, so they constantly race the reactor's drain of
/// its wake channel. A lost wake leaves the channel's `pending` flag set
/// over an empty pipe, and every later wake is suppressed; the final job
/// on each connection is a real one whose `Wait` parks, so that state
/// shows up as a reply stalled to the loop's idle timeout.
#[test]
fn concurrent_parked_waits_never_stall() {
    const CONNS: usize = 4;
    const JOBS: usize = 3000;
    let dir = tmp_dir("stall");
    let socket = dir.join("svc.sock");
    // No retries: an instant job's failure must not back off and sleep.
    let retry = RetryPolicy {
        max_attempts: 1,
        ..Default::default()
    };
    let server = start_server_with(
        &socket,
        Config {
            workers: 2,
            retry,
            ..Config::default()
        },
    );

    let clients: Vec<_> = (0..CONNS)
        .map(|_| {
            let mut stream = UnixStream::connect(&socket).expect("connect");
            std::thread::spawn(move || {
                let submit = |n: usize| {
                    let spec = if n + 1 < JOBS { instant_job() } else { short_job() };
                    frame(&Request::Submit(spec, Default::default()))
                };
                stream.write_all(&submit(0)).expect("submit");
                let mut id = submitted_id(&mut stream);
                let mut max_delay_ns = 0;
                for n in 0..JOBS {
                    // Wait(this job), then Submit(next) in one write: the
                    // Submit is dispatched at once, its reply held behind
                    // the Wait.
                    let mut batch = frame(&Request::Wait(id));
                    let more = n + 1 < JOBS;
                    if more {
                        batch.extend_from_slice(&submit(n + 1));
                    }
                    stream.write_all(&batch).expect("wait + submit");
                    max_delay_ns = max_delay_ns.max(reply_delay_ns(&mut stream, id));
                    if more {
                        id = submitted_id(&mut stream);
                    }
                }
                max_delay_ns
            })
        })
        .collect();
    for client in clients {
        let max_ms = client.join().expect("client thread") / 1_000_000;
        assert!(
            max_ms < 100,
            "a parked Wait took {max_ms} ms past its job's completion: a wake was lost"
        );
    }

    shutdown(&socket, server);
    let _ = std::fs::remove_dir_all(&dir);
}
