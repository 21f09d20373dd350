//! A single-threaded nonblocking event loop over a Unix-domain
//! listener.
//!
//! The thread-per-connection front end spent one OS thread (stack,
//! scheduler slot, join bookkeeping) per client; under hundreds of
//! load-generator connections the accept loop itself became the
//! bottleneck. This reactor multiplexes every connection on one thread
//! with `poll(2)`: per-connection read buffers make **pipelining**
//! first-class (a client may write many frames back-to-back and read
//! the responses later; partial frames are reassembled across reads),
//! and per-connection write buffers absorb slow readers without
//! blocking the loop.
//!
//! The loop is deliberately protocol-agnostic: a [`Handler`] decodes
//! payloads and produces responses, so both `wabench-served` (scheduler
//! front end) and `wabench-router` (shard multiplexer) run on the same
//! reactor. Responses stay **in request order per connection** — the
//! wire contract ("one response per request, in order") is enforced
//! here with ordered response slots, not left to handlers: a handler
//! may *park* a request (e.g. `Wait` for an unfinished job) and resolve
//! it later from [`Handler::tick`]; frames queued behind the parked
//! slot are held until it fills.
//!
//! A parked request resolves on a **wake**, not a timer: the loop owns
//! a socket pair whose read end sits in the same `poll(2)` set as the
//! connections, and the handler gets a [`Waker`] for the write end. A
//! scheduler worker wakes it when a job completes, so a parked `Wait`
//! is answered one loop iteration after its result is published. Only
//! handlers whose parked work no wake can signal ([`Handler::parked`])
//! put the loop on a short poll tick.
//!
//! No epoll and no external crates: `poll(2)` is declared directly
//! (the workspace builds offline and deliberately avoids a libc
//! dependency), and the fd sets here are small enough that O(n) scans
//! are irrelevant next to job execution times.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::wire::MAX_FRAME;

/// `struct pollfd` from `<poll.h>`; layout is identical on every
/// platform this workspace targets (Linux/macOS).
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

/// Blocks until any registered fd is ready or the timeout elapses,
/// retrying on EINTR.
fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<()> {
    loop {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // correctly laid-out `pollfd` records for the whole call.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc >= 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Wakes a reactor blocked in `poll(2)` from any thread. Wakes
/// coalesce: only the first since the reactor last drained writes a
/// byte.
#[derive(Clone)]
pub struct Waker(Arc<WakeShared>);

struct WakeShared {
    /// Set by a wake, cleared by the reactor after it drains the pipe.
    /// While set, a byte is in the pipe or the reactor is between its
    /// drain and its next tick, so another byte would add nothing.
    pending: AtomicBool,
    tx: UnixStream,
}

impl Waker {
    /// Makes the reactor run [`Handler::tick`] soon. Never blocks.
    pub fn wake(&self) {
        if !self.0.pending.swap(true, Ordering::SeqCst) {
            // Nonblocking; a full pipe is already readable, and a
            // closed one means the reactor is gone.
            let _ = (&self.0.tx).write(&[1]);
        }
    }
}

/// The reactor's end of the wake channel.
struct WakeChannel {
    rx: UnixStream,
    waker: Waker,
}

impl WakeChannel {
    fn new() -> io::Result<WakeChannel> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(WakeChannel {
            rx,
            waker: Waker(Arc::new(WakeShared {
                pending: AtomicBool::new(false),
                tx,
            })),
        })
    }

    /// Empties the pipe, **then** clears `pending`; the caller ticks
    /// after. A wake landing between the two finds `pending` set and
    /// writes nothing, but the tick that follows sees its work. Clearing
    /// first would let such a wake's byte be swallowed by the read,
    /// leaving `pending` set over an empty pipe: every later wake would
    /// then be suppressed and the loop would sleep to its idle timeout.
    fn drain(&self) {
        self.read_pipe();
        self.waker.0.pending.store(false, Ordering::SeqCst);
    }

    fn read_pipe(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(n) if n > 0 => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => return,
            }
        }
    }
}

/// Identifies one in-order response slot: the `slot`-th request ever
/// received on connection `conn`. Handlers hand tokens back when they
/// resolve parked requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token {
    /// Reactor-assigned connection id (stable for the connection's
    /// lifetime, never reused within a run).
    pub conn: u64,
    /// Per-connection request sequence number.
    pub slot: u64,
}

/// What a handler does with one decoded request payload.
pub enum Action {
    /// Answer immediately with this frame payload.
    Respond(Vec<u8>),
    /// No answer yet; the handler will resolve the token from a later
    /// [`Handler::tick`], typically after a [`Waker::wake`]. Responses
    /// to later requests on the same connection are held behind the
    /// parked slot.
    Park,
    /// Answer with this frame payload, then shut the reactor down once
    /// every connection's pending responses are flushed.
    Bye(Vec<u8>),
}

/// One resolved parked request, produced by [`Handler::tick`].
pub enum Resolution {
    /// The response frame payload.
    Respond(Vec<u8>),
    /// The response frame payload, plus a shutdown of the reactor after
    /// all write buffers flush (used for drain-then-stop semantics).
    Bye(Vec<u8>),
}

/// Protocol logic plugged into the reactor. All methods run on the
/// reactor thread and must not block.
pub trait Handler {
    /// Process one complete frame payload from `token.conn`.
    fn handle(&mut self, token: Token, payload: &[u8]) -> Action;

    /// Called once per loop iteration — after every wake, every
    /// readiness event and every poll timeout: resolve any parked
    /// requests that have become answerable by pushing
    /// `(token, resolution)` pairs.
    fn tick(&mut self, done: &mut Vec<(Token, Resolution)>);

    /// The connection is gone (EOF or error); drop any parked state for
    /// it. Resolutions for its tokens are silently discarded.
    fn conn_closed(&mut self, conn: u64);

    /// Whether the handler has parked work that only a timer can
    /// resolve. Governs the poll timeout: such work is re-checked on a
    /// short tick. Work that a [`Waker`] signals does not count.
    fn parked(&self) -> bool;

    /// Receives the loop's [`Waker`] once, before the first request.
    /// Handlers whose parked work completes on other threads keep it
    /// and wake the loop from there.
    fn set_waker(&mut self, _waker: Waker) {}
}

struct Conn {
    id: u64,
    stream: UnixStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// In-order response slots, front = oldest pending request.
    /// `Some(frame)` is ready to flush; `None` is parked.
    slots: VecDeque<Option<Vec<u8>>>,
    /// Slot id of `slots.front()`.
    head_slot: u64,
    /// Slot id handed to the next incoming request.
    next_slot: u64,
    /// Read side saw EOF (flush what's pending, then drop).
    eof: bool,
}

impl Conn {
    /// Fills the slot a resolution addresses; ignores slots already
    /// flushed (can happen if a handler double-resolves).
    fn fill(&mut self, slot: u64, frame: Vec<u8>) {
        if slot < self.head_slot {
            return;
        }
        let idx = (slot - self.head_slot) as usize;
        if let Some(entry) = self.slots.get_mut(idx) {
            *entry = Some(frame);
        }
    }

    /// Moves every leading ready slot into the write buffer, preserving
    /// request order.
    fn flush_ready(&mut self) {
        while matches!(self.slots.front(), Some(Some(_))) {
            let frame = self.slots.pop_front().flatten().expect("ready slot");
            self.wbuf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            self.wbuf.extend_from_slice(&frame);
            self.head_slot += 1;
        }
    }

    /// A connection is finished when its read side is closed and
    /// nothing remains to write.
    fn finished(&self) -> bool {
        self.eof && self.wbuf.is_empty()
    }
}

/// Poll-set index of the first connection: the listener is 0, the wake
/// channel 1.
const FIRST_CONN: usize = 2;

/// Runs the event loop on an already-bound listener until a handler
/// returns [`Action::Bye`] / [`Resolution::Bye`] and all responses are
/// flushed.
///
/// # Errors
///
/// Fatal I/O errors on the listener or `poll(2)` itself. Per-connection
/// errors (resets, oversized frames) just drop that connection.
pub fn run(listener: &UnixListener, handler: &mut dyn Handler) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let wake = WakeChannel::new()?;
    handler.set_waker(wake.waker.clone());
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_conn_id: u64 = 0;
    let mut draining = false;
    let mut done: Vec<(Token, Resolution)> = Vec::new();

    loop {
        // 1. Give parked requests a chance to resolve.
        done.clear();
        handler.tick(&mut done);
        for (token, res) in done.drain(..) {
            let frame = match res {
                Resolution::Respond(f) => f,
                Resolution::Bye(f) => {
                    draining = true;
                    f
                }
            };
            if let Some(conn) = conns.iter_mut().find(|c| c.id == token.conn) {
                conn.fill(token.slot, frame);
                conn.flush_ready();
            }
        }

        // 2. Opportunistic writes (newly ready frames), then reap.
        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];
            if !conn.wbuf.is_empty() {
                if let Err(e) = write_some(conn) {
                    if e.kind() != io::ErrorKind::WouldBlock {
                        let id = conn.id;
                        conns.swap_remove(i);
                        handler.conn_closed(id);
                        continue;
                    }
                }
            }
            if conn.finished() {
                let id = conn.id;
                conns.swap_remove(i);
                handler.conn_closed(id);
                continue;
            }
            i += 1;
        }

        // 3. Draining and everything flushed: stop.
        if draining && conns.iter().all(|c| c.wbuf.is_empty()) {
            return Ok(());
        }

        // 4. Wait for readiness or a wake. Timer-only parked work and
        // draining re-check on a short tick; otherwise the timeout is
        // only a backstop.
        let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len() + FIRST_CONN);
        fds.push(PollFd {
            fd: listener.as_raw_fd(),
            events: if draining { 0 } else { POLLIN },
            revents: 0,
        });
        fds.push(PollFd {
            fd: wake.rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for conn in &conns {
            let mut events = 0i16;
            if !conn.eof && !draining {
                events |= POLLIN;
            }
            if !conn.wbuf.is_empty() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        let timeout_ms = if handler.parked() || draining { 2 } else { 250 };
        poll_fds(&mut fds, timeout_ms)?;
        if fds[1].revents != 0 {
            wake.drain();
        }

        // 5. Accept every pending connection.
        if fds[0].revents & (POLLIN | POLLERR) != 0 {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(true)?;
                        conns.push(Conn {
                            id: next_conn_id,
                            stream,
                            rbuf: Vec::new(),
                            wbuf: Vec::new(),
                            slots: VecDeque::new(),
                            head_slot: 0,
                            next_slot: 0,
                            eof: false,
                        });
                        next_conn_id += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }

        // 6. Service ready connections (fds[i + FIRST_CONN] maps to
        // conns[i] — both were frozen together above; removals happen
        // after).
        let mut dead: Vec<u64> = Vec::new();
        for (i, fd) in fds.iter().enumerate().skip(FIRST_CONN) {
            let conn = &mut conns[i - FIRST_CONN];
            if fd.revents & (POLLERR | POLLNVAL) != 0 {
                dead.push(conn.id);
                continue;
            }
            if fd.revents & (POLLIN | POLLHUP) != 0 && !conn.eof {
                match read_and_dispatch(conn, handler) {
                    Ok(keep) => {
                        if !keep {
                            draining = true;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => {
                        dead.push(conn.id);
                        continue;
                    }
                }
            }
            if fd.revents & POLLOUT != 0 && !conn.wbuf.is_empty() {
                if let Err(e) = write_some(conn) {
                    if e.kind() != io::ErrorKind::WouldBlock {
                        dead.push(conn.id);
                    }
                }
            }
        }
        if !dead.is_empty() {
            conns.retain(|c| !dead.contains(&c.id));
            for id in dead {
                handler.conn_closed(id);
            }
        }
    }
}

/// Drains the socket into the connection's read buffer, carves out
/// every complete frame, and dispatches each to the handler. Returns
/// `Ok(false)` when a handler answered [`Action::Bye`].
///
/// # Errors
///
/// Read errors, oversized frames, or a frame length lying beyond
/// `MAX_FRAME` — all of which drop the connection.
fn read_and_dispatch(conn: &mut Conn, handler: &mut dyn Handler) -> io::Result<bool> {
    let mut keep = true;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    // Extract complete frames; anything partial waits for the next
    // readiness event.
    while conn.rbuf.len() >= 4 {
        let len = u32::from_le_bytes(conn.rbuf[..4].try_into().expect("4 bytes")) as usize;
        if len as u32 > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame exceeds MAX_FRAME",
            ));
        }
        if conn.rbuf.len() < 4 + len {
            break;
        }
        let payload: Vec<u8> = conn.rbuf[4..4 + len].to_vec();
        conn.rbuf.drain(..4 + len);
        let token = Token {
            conn: conn.id,
            slot: conn.next_slot,
        };
        conn.next_slot += 1;
        match handler.handle(token, &payload) {
            Action::Respond(frame) => conn.slots.push_back(Some(frame)),
            Action::Park => conn.slots.push_back(None),
            Action::Bye(frame) => {
                conn.slots.push_back(Some(frame));
                keep = false;
            }
        }
    }
    conn.flush_ready();
    if !conn.wbuf.is_empty() {
        // Try to push responses out right away; WouldBlock just leaves
        // the rest for POLLOUT.
        match write_some(conn) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
    }
    Ok(keep)
}

/// Writes as much buffered response data as the socket accepts.
///
/// # Errors
///
/// `WouldBlock` when the socket is full (retry on POLLOUT); anything
/// else is fatal for the connection.
fn write_some(conn: &mut Conn) -> io::Result<()> {
    while !conn.wbuf.is_empty() {
        match conn.stream.write(&conn.wbuf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ))
            }
            Ok(n) => {
                conn.wbuf.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the wake channel's read end would wake `poll(2)` now.
    fn readable(ch: &WakeChannel) -> bool {
        let mut fds = [PollFd {
            fd: ch.rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        poll_fds(&mut fds, 0).expect("poll");
        fds[0].revents & POLLIN != 0
    }

    #[test]
    fn wakes_coalesce_into_one_byte() {
        let ch = WakeChannel::new().expect("wake channel");
        assert!(!readable(&ch));
        for _ in 0..5 {
            ch.waker.wake();
        }
        assert!(readable(&ch));
        ch.drain();
        assert!(!readable(&ch), "five wakes wrote more than one drainable byte");
        ch.waker.wake();
        assert!(readable(&ch), "a wake after a drain must write again");
    }

    /// The interleaving that lost wakes in the clear-then-drain order:
    /// a wake lands while the reactor is mid-drain.
    #[test]
    fn wake_racing_a_drain_still_leaves_the_reactor_woken() {
        // Drain then clear (what `drain` does). The racing wake is
        // coalesced away, but the tick after the drain sees its work,
        // and the next wake is readable.
        let ch = WakeChannel::new().expect("wake channel");
        ch.waker.wake();
        ch.read_pipe();
        ch.waker.wake();
        ch.waker.0.pending.store(false, Ordering::SeqCst);
        ch.waker.wake();
        assert!(readable(&ch), "drain-then-clear lost a wake");

        // Clear then drain: the racing wake's byte is read away while
        // `pending` stays set, so the next wake writes nothing and the
        // reactor would sleep to its idle timeout.
        let ch = WakeChannel::new().expect("wake channel");
        ch.waker.wake();
        ch.waker.0.pending.store(false, Ordering::SeqCst);
        ch.waker.wake();
        ch.read_pipe();
        ch.waker.wake();
        assert!(!readable(&ch), "clear-then-drain is expected to lose this wake");
    }
}
